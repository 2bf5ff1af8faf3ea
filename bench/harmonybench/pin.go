package main

import (
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuRotor takes the whole process from one CPU to the next.
//
// Neighbours slow the sandbox's vCPUs one at a time: over a minute of
// a fixed spin loop pinned to each, either ran 1.3–1.9× slow for 5–10 s
// while the other ran at full speed. A one-thread run left to the
// kernel's scheduler stays on the vCPU it woke on and inherits that
// vCPU's spells, which outlast a run; a run that takes turns on every
// vCPU finds a quiet stretch if any of them has one. A nil rotor does
// nothing: a run on more than one P is not moved about.
type cpuRotor struct {
	cpus   []int // the CPUs the process may run on
	next   int
	turned time.Time
}

// rotorPeriod is how long the op loops stay on one CPU: a few quiet
// windows long, and well under a neighbour's spell.
const rotorPeriod = time.Second

// cpuMask is the kernel's cpu_set_t.
type cpuMask [16]uint64

// newCPURotor lists the CPUs the process may run on. With fewer than
// two there is nothing to rotate over and it returns nil.
func newCPURotor() *cpuRotor {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	r := &cpuRotor{}
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			r.cpus = append(r.cpus, cpu)
		}
	}
	if len(r.cpus) < 2 {
		return nil
	}
	return r
}

// turn pins every thread of the process to the next CPU. Threads
// started later inherit the pin from the thread that starts them, and
// so does a child process. A thread that has exited, or a kernel that
// refuses, leaves that thread where it was: the run is then noisier,
// not wrong.
func (r *cpuRotor) turn() {
	if r == nil {
		return
	}
	cpu := r.cpus[r.next]
	r.next = (r.next + 1) % len(r.cpus)
	r.turned = time.Now()
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		}
	}
}

// turnWhenDue turns once rotorPeriod has passed since the last turn;
// the op loops call it between ops.
func (r *cpuRotor) turnWhenDue() {
	if r != nil && time.Since(r.turned) >= rotorPeriod {
		r.turn()
	}
}
