//go:build purego || (!amd64 && !arm64)

package gf

// platformSets offers no assembly kernels under the purego tag or on
// platforms without them.
func platformSets() []kernelSet { return nil }
