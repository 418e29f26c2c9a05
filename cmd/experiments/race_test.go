//go:build race

package main

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = true
