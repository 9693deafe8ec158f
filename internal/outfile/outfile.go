// Package outfile writes the commands' output files: Write fills a new
// file from a writer callback, and JSON writes the indented JSON reports
// (-stats-json, -metrics-dir, -reliability-out) with "-" meaning stdout.
package outfile

import (
	"encoding/json"
	"io"
	"os"
)

// Write creates path and fills it with write. The file is closed on every
// path, and a close error is reported like a write error.
func Write(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// JSON writes v as two-space-indented JSON plus a newline to path, or to
// stdout when path is "-".
func JSON(path string, stdout io.Writer, v any) error {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}
