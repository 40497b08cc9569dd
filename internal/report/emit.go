package report

import (
	"bufio"
	"io"
	"os"
)

// Emit writes a command's report to the file at path, or to standard output
// when path is empty, through a buffered writer. It returns the first error
// of write itself, of writing or flushing the output, or of closing the
// file, so a full disk or a closed pipe fails the command instead of leaving
// a truncated report behind a zero exit status. The os errors it returns
// name the output.
func Emit(path string, write func(io.Writer) error) error {
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		out = f
	}
	bw := bufio.NewWriter(out)
	err := write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if path != "" {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
