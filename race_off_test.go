//go:build !race

package sstar

const raceDetector = false
