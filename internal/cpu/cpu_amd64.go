package cpu

// hasVector reads CPUID and XCR0 (cpu_amd64.s).
func hasVector() bool
