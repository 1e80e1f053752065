//go:build !race

package landmark

const raceEnabled = false
