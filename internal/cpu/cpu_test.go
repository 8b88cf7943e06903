package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestVectorMatchesCPUInfo: where the kernel lists the CPU's features, the
// probe must agree with it.
func TestVectorMatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if Vector {
			t.Fatal("Vector set off amd64, where no assembly kernel exists")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare with")
	}
	flags := ""
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = " " + line + " "
			break
		}
	}
	if flags == "" {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	want := strings.Contains(flags, " avx2 ") && strings.Contains(flags, " f16c ")
	if Vector != want {
		t.Fatalf("Vector = %v, /proc/cpuinfo says avx2 && f16c = %v", Vector, want)
	}
}
