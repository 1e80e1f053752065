//go:build race

package landmark

// raceEnabled gates TestFlipCopiesPages: under the race detector sync.Pool
// drops a share of what is put back, so an update's pooled scratch is
// reallocated at random and allocation counts measure the detector.
const raceEnabled = true
