//go:build !linux

package main

import "os/exec"

// startPinned starts cmd; only Linux can confine it to a CPU.
func startPinned(cmd *exec.Cmd) error { return cmd.Start() }
