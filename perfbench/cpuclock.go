package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark times work by CPU clocks. On the 2-CPU virtual machines
// it was written on, the hypervisor stole anywhere from 1% to 35% of the
// CPUs' time from one minute to the next, and wall-clock figures moved
// with it; CPU clocks do not count stolen time.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU returns the calling OS thread's CPU time. The benchmark's
// main goroutine is locked to its thread, so successive readings from it
// time the engine's steps, GC assists included.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU returns the CPU time of the whole process: every thread,
// the garbage collector's included.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }
