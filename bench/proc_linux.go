package main

import (
	"os/exec"
	"syscall"
	"unsafe"
)

// dieWithParent makes the kernel SIGKILL the child when the harness dies,
// covering the one exit path no handler can: SIGKILL of the harness itself.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// offHeapFloats maps n zeroed float64s the garbage collector does not know
// of; free unmaps them. The host probe's table is 64 MB; on the Go heap it
// would double the heap target of build-blocked, whose memory is the
// harness's own.
func offHeapFloats(n int) (table []float64, free func(), err error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	// Unmapping memory nothing refers to any more cannot fail.
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), func() { _ = syscall.Munmap(b) }, nil
}
