package engine

// SetFanoutThresholdForTest pins the escalation rule of RunCompute: the
// frontier size above which a compute phase at parallelism > 1 fans out
// becomes frontier, and the core-count condition is waived, until the
// returned function restores both. 0 fans every phase out at its first round,
// math.MaxInt keeps every phase on the caller, whatever GOMAXPROCS is. It
// exists so suites whose graphs are far below fanoutMinFrontier, on boxes
// below fanoutMinCores, can still drive the worker path. Not safe while any
// engine is running; production code has no reason to call it — both
// conditions are measured constants, not settings.
func SetFanoutThresholdForTest(frontier int) (restore func()) {
	oldFrontier, oldCores := fanoutThreshold, fanoutCores
	fanoutThreshold, fanoutCores = frontier, 0
	return func() { fanoutThreshold, fanoutCores = oldFrontier, oldCores }
}
