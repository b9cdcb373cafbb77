//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death signal;
// the supervisor's own cleanup still covers every catchable exit path.
func dieWithParent(*exec.Cmd) {}

// offHeapFloats falls back to the Go heap where anonymous mappings are not
// portable; peak memory of build-blocked then reads higher.
func offHeapFloats(n int) (table []float64, free func(), err error) {
	return make([]float64, n), func() {}, nil
}
