//go:build !amd64

package cpu

func hasVector() bool { return false }
