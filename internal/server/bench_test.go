package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// BenchmarkServeClip measures one end-to-end service round-trip on a
// warm daemon: POST a small clip job, poll it to done. The first
// iteration pays kernel construction; every subsequent one hits the
// warm ProcessCache, so the steady-state number is what the benchdiff
// gate tracks. Alongside ns/op it reports req/s (larger-is-better in
// the gate) and p99-ms. Concurrent clients and a clip/ilt mix are
// cmd/cardopc-bench's serve_mix workload, not this benchmark's.
func BenchmarkServeClip(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.queue.drain()
		s.Close()
	}()

	spec, err := json.Marshal(tinySpec())
	if err != nil {
		b.Fatal(err)
	}
	// Pay the cold start outside the timed region.
	serveOne(b, s, ts, spec)

	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		r0 := time.Now()
		serveOne(b, s, ts, spec)
		lat = append(lat, time.Since(r0).Seconds()*1e3)
	}
	elapsed := time.Since(t0).Seconds()
	b.StopTimer()

	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "req/s")
	}
	sort.Float64s(lat)
	b.ReportMetric(lat[(len(lat)-1)*99/100], "p99-ms")
}

// serveOne submits one job over HTTP, waits for completion on the
// job's done channel, and fetches the result over HTTP. Waiting
// in-package instead of poll-looping keeps the per-op allocation count
// deterministic (a 1 ms HTTP poll loop's iteration count — and so its
// B/op — varies with scheduler timing, which flaps the benchdiff
// gate); the wire cost stays a fixed 1 POST + 1 GET per round-trip.
func serveOne(b *testing.B, s *Server, ts *httptest.Server, spec []byte) {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: %d", resp.StatusCode)
	}
	<-s.job(v.ID).done
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		b.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if v.Status != StatusDone {
		b.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
}
