package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a shared VM a vCPU that halts is descheduled by the hypervisor, and
// getting it back took 10-300 ms in this host's noisy spells: timers fire
// late, one node's goroutines stall while the others run on, and the stack
// answers with round-change storms. The deployment idles three quarters of
// the time, so it halts thousands of times a second. holdCPUs keeps every
// core from halting for the length of the run with one busy loop per core in
// a child process at SCHED_IDLE priority: the kernel runs it only when
// nothing else wants the core and preempts it the moment anything does, and
// as a separate process its CPU time stays out of cpu_us_per_op. Measured on
// this host, same seeds, alternating: the spread of p50_ms across runs fell
// from 45 % to 11 % on steady_open and from 17 % to 6 % on sharded_closed, and
// steady_open runs with a collapsed repetition from 2 in 5 to none. It is
// part of the ruler, applied the same to every commit measured.
//
// That was measured on a 2-core VM, and spinning every core of a large or
// shared machine is not the benchmark's to do: above holdMaxCPUs cores nothing
// is held. The output header and the result file say how many cores were
// held, and -compare refuses to hold a held run against an unheld one.
func holdCPUs() (release func(), n int) {
	if runtime.NumCPU() > holdMaxCPUs {
		return func() {}, 0
	}
	var held []*exec.Cmd
	var pipes []io.Closer
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(os.Args[0], "-hold-cpu")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		// The child spins until its standard input closes, so it cannot
		// outlive this process however this process ends.
		in, err := cmd.StdinPipe()
		if err != nil || cmd.Start() != nil {
			continue // unshielded is noisier, not wrong
		}
		held, pipes = append(held, cmd), append(pipes, in)
	}
	return func() {
		for i, cmd := range held {
			pipes[i].Close()
			_ = cmd.Process.Kill() // already exiting on the closed pipe
			_ = cmd.Wait()         // reaps; the error is the kill
		}
	}, len(held)
}

const holdMaxCPUs = 4

// holdCPU is the child's whole life: drop to idle priority, spin, exit when
// the parent closes the pipe.
func holdCPU() {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // nice 19 is nearly as meek
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
	}
}
