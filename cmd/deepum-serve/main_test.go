package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheckModeRejectsOtherModeFlags: a flag that only the other serving
// mode reads is an error naming the flag, and both command lines the
// repository benchmark starts the server with pass.
func TestCheckModeRejectsOtherModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // "" = accepted
	}{
		{[]string{"-shards", "2", "-journal-dir", "d", "-store", "d/ck.store", "-store-gc", "0.5"}, "-store-gc"},
		{[]string{"-shards", "2", "-journal-dir", "d", "-journal", "runs.journal"}, "-journal"},
		{[]string{"-journal", "runs.journal", "-journal-dir", "d"}, "-journal-dir"},
		{[]string{"-handoff-grace", "1s"}, "-handoff-grace"},
		{[]string{"-workers", "2", "-queue", "64", "-journal", "d/runs.journal", "-store", "d/ck.store"}, ""},
		{[]string{"-shards", "2", "-workers", "2", "-queue", "64", "-journal-dir", "d",
			"-store", "d/ck.store", "-oversubscribe", "-gpu-budget", "1073741824"}, ""},
		{[]string{"-journal", "runs.journal", "-store", "ck.store", "-store-gc", "0.5"}, ""},
		{[]string{"-shards", "4", "-journal-dir", "d", "-handoff-grace", "0"}, ""},
	} {
		fs := flag.NewFlagSet("deepum-serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := defineFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := checkMode(fs, f.shards > 0)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%v rejected: %v", tc.args, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}
