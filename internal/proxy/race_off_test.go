//go:build !race

package proxy

const raceEnabled = false
