//go:build !race

package mlaas

const raceEnabled = false
