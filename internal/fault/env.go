package fault

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Seeds returns the seeds a determinism test runs: the single seed
// named by COOKIEWALK_SEED, or defaults when the variable is unset. CI
// runs one seed per matrix leg; a plain `go test` runs every default.
func Seeds(tb testing.TB, defaults ...uint64) []uint64 {
	tb.Helper()
	env := os.Getenv("COOKIEWALK_SEED")
	if env == "" {
		return defaults
	}
	seed, err := strconv.ParseUint(env, 10, 64)
	if err != nil {
		tb.Fatalf("COOKIEWALK_SEED=%q: %v", env, err)
	}
	return []uint64{seed}
}

// SaveArtifacts copies dir to $COOKIEWALK_ARTIFACTS/name/checkpoint,
// and writes each of files (name → contents) next to it, for a CI
// workflow to upload after a failure. The seed fully determines the
// fault schedule, so the copy plus the seed reproduce a failure
// offline. It does nothing when COOKIEWALK_ARTIFACTS is unset.
func SaveArtifacts(tb testing.TB, name, dir string, files map[string]string) {
	tb.Helper()
	root := os.Getenv("COOKIEWALK_ARTIFACTS")
	if root == "" {
		return
	}
	dst := filepath.Join(root, name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Logf("artifacts: %v", err)
		return
	}
	if err := os.CopyFS(filepath.Join(dst, "checkpoint"), os.DirFS(dir)); err != nil {
		tb.Logf("artifacts: copy %s: %v", dir, err)
	}
	for file, data := range files {
		if err := os.WriteFile(filepath.Join(dst, file), []byte(data), 0o644); err != nil {
			tb.Logf("artifacts: %v", err)
		}
	}
	tb.Logf("failure artifacts saved to %s", dst)
}
