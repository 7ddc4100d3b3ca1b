//go:build race

package bounds

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a random share of the values put back.
const raceEnabled = true
