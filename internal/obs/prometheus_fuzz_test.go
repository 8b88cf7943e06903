package obs

import (
	"regexp"
	"testing"
)

// promNameRE is the Prometheus metric-name grammar.
var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// FuzzPromName holds promName to the Prometheus name grammar: a non-empty
// name comes out valid, and a valid name comes out unchanged, so
// rewriting is idempotent. The seeds are in testdata/fuzz/FuzzPromName.
func FuzzPromName(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string) {
		got := promName(name)
		if name != "" && !promNameRE.MatchString(got) {
			t.Fatalf("promName(%q) = %q, not a Prometheus name", name, got)
		}
		if again := promName(got); again != got {
			t.Fatalf("promName(%q) = %q, but promName(%q) = %q", name, got, got, again)
		}
	})
}
