package obs

// Emit writes one record to the process-wide telemetry stream; it
// drops the record when telemetry is disabled. Ambient emission: the
// record carries no job label (any stale label from a previous scoped
// emit of a reused record is cleared). Work that belongs to a unit of
// work emits through its Scope instead (see scope.go).
func Emit(rec Record) {
	st := global.Load()
	if st == nil {
		return
	}
	rec.setJob("")
	st.Telemetry.Emit(rec)
}
