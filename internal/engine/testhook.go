package engine

// SetFanoutThresholdForTest replaces the frontier size above which a compute
// phase at parallelism > 1 fans out, and returns the function that restores
// the previous value: 0 fans every phase out at its first round,
// math.MaxInt keeps every phase on the caller. It exists so suites whose
// graphs are far below fanoutMinFrontier can still drive the worker path.
// Not safe while any engine is running; production code has no reason to call
// it — the threshold is a measured constant, not a setting.
func SetFanoutThresholdForTest(frontier int) (restore func()) {
	old := fanoutThreshold
	fanoutThreshold = frontier
	return func() { fanoutThreshold = old }
}
