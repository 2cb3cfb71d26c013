package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is the kernel's CPU set for the affinity calls: room for 1024
// CPUs.
type cpuMask [16]uint64

func affinity(trap uintptr, tid int, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU binds every thread of this process to one CPU, the highest
// it is allowed to use, and returns that CPU. Threads and processes started
// afterwards inherit the binding, so the generator, its host meter, the
// server and the layer probe all take turns on the same core: the meter
// then reads the speed of the very core the server computes on, and a run
// does not depend on whether the host has a second core to spare at that
// moment (README, "Noise control", has the measurements). Call it after
// the builds, which want every CPU.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return 0, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	runtime.GOMAXPROCS(1)
	// Twice: a thread the runtime started while the first pass ran was
	// listed by neither or created by a thread not yet bound.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread that exited since the listing is no error.
			if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one); err != nil && !errors.Is(err, syscall.ESRCH) {
				return 0, fmt.Errorf("sched_setaffinity: %w", err)
			}
		}
	}
	return cpu, nil
}
