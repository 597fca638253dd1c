//go:build race

package chain

func init() { raceDetector = true }
