//go:build !race

package main

// raceEnabled reports a build with the race detector.
const raceEnabled = false
