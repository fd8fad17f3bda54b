//go:build !race

package viewobject_test

const raceEnabled = false
