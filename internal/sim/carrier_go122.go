//go:build !go1.23

package sim

// The dispatch loop runs simulated processes on iter.Pull coroutines
// (carrier.go), which need a Go 1.23 or newer toolchain.  This file is
// built only by an older toolchain, where it stops the build with an
// error that names the requirement instead of a string of undefined
// carrier symbols.
var _ = spasm_requires_go1_23_or_newer
