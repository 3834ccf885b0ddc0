//go:build !purego

package gf

// Default dispatch: install the platform's preferred kernel set when the
// CPU supports one, else the word-at-a-time generic set. Building with
// -tags purego skips this file entirely, pinning every kernel to the
// reference set.
func init() {
	active = genericKernels
	if sets := platformSets(); len(sets) > 0 {
		active = sets[0]
	}
}
