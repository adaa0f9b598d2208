package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: room for 1024 CPUs.
type cpuMask [16]uint64

func affinity(call uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// startPinned starts cmd confined to one CPU: the last one this process
// may use (the first takes the guest's interrupts). Every process the
// benchmark measures with — each child and the reference process — starts
// here, so they share that CPU. The kernel's reading describes the speed
// of the vCPU it ran on, and the two vCPUs of a guest do not slow down
// together: with the reference process on the other one, the same op at
// reference speed read 12 % slower and ranged over 35 %, against 12 % on
// the same one (README.md).
//
// A child inherits the affinity of the thread that forks it, so the
// calling goroutine's thread is confined for the length of the fork.
func startPinned(cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old, one cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &old); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	for cpu := len(old)*64 - 1; cpu >= 0; cpu-- {
		if old[cpu/64]&(1<<(cpu%64)) != 0 {
			one[cpu/64] = 1 << (cpu % 64)
			break
		}
	}
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err := cmd.Start()
	if rerr := affinity(syscall.SYS_SCHED_SETAFFINITY, &old); rerr != nil && err == nil {
		err = fmt.Errorf("sched_setaffinity (restore): %w", rerr)
	}
	return err
}
