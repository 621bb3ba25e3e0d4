//go:build !race

package extract

const raceEnabled = false
