package unigpu

import (
	"bytes"
	"fmt"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestGofmt fails on every Go source file of the module that gofmt would
// rewrite, naming each one. The planted subtest requires a mis-formatted
// file to be reported, so a change that blinds the check fails too.
func TestGofmt(t *testing.T) {
	bad, err := unformattedFiles(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range bad {
		t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", path, path)
	}

	t.Run("planted", func(t *testing.T) {
		dir := t.TempDir()
		files := map[string]string{
			"ok.go":             "package p\n\nfunc f() {}\n",
			"bad.go":            "package p\nfunc  g( ) {}\n",
			"testdata/skip.go":  "package p\nfunc  h( ) {}\n",
			".hidden/skip.go":   "package p\nfunc  h( ) {}\n",
			"sub/unsorted.go":   "package p\n\nimport (\n\t\"os\"\n\t\"fmt\"\n)\n\nvar _, _ = fmt.Sprint, os.Exit\n",
			"sub/not_source.md": "func  h( ) {}\n",
		}
		for name, src := range files {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := unformattedFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{filepath.Join(dir, "bad.go"), filepath.Join(dir, "sub/unsorted.go")}
		if !slices.Equal(got, want) {
			t.Fatalf("reported %v, want %v", got, want)
		}
	})
}

// unformattedFiles returns, in walk order, every .go file under root whose
// contents go/format (gofmt's printer) would change. Like the go tool, it
// skips testdata directories and directories whose names begin with "."
// or "_".
func unformattedFiles(root string) ([]string, error) {
	var bad []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out, err := format.Source(src)
		if err != nil {
			return fmt.Errorf("gofmt %s: %w", path, err)
		}
		if !bytes.Equal(src, out) {
			bad = append(bad, path)
		}
		return nil
	})
	return bad, err
}
