package outfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestJSON(t *testing.T) {
	v := struct{ A []int }{[]int{1, 2}}
	want := "{\n  \"A\": [\n    1,\n    2\n  ]\n}\n"
	var stdout bytes.Buffer
	if err := JSON("-", &stdout, v); err != nil || stdout.String() != want {
		t.Fatalf(`JSON("-") wrote %q (%v), want %q`, stdout.String(), err, want)
	}
	path := filepath.Join(t.TempDir(), "v.json")
	if err := JSON(path, &stdout, v); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != want {
		t.Fatalf("file holds %q (%v), want %q", b, err, want)
	}
	if stdout.Len() != len(want) {
		t.Fatal("a file write also reached stdout")
	}
}

func TestWriteReportsCallbackError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	boom := errors.New("boom")
	if err := Write(path, func(io.Writer) error { return boom }); err != boom {
		t.Fatalf("Write returned %v, want the callback's error", err)
	}
	if err := Write(filepath.Join(path, "missing", "y"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
}
