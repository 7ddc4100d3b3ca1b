//go:build !race

package bounds

const raceEnabled = false
