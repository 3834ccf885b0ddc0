//go:build linux

package main

// timerfd system call numbers (the frozen syscall package lacks them).
const (
	sysTimerfdCreate  = 283
	sysTimerfdSettime = 286
)
