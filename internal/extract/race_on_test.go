//go:build race

package extract

// raceEnabled reports that the race detector is on; under it allocation
// counts mean nothing.
const raceEnabled = true
