package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagOutsideItsModeFails: -listing is read only by training and
// -json only by the stats subcommand; either given to another mode is a
// usage error naming both, returned before anything is loaded or
// trained, not a flag dropped without a word.
func TestFlagOutsideItsModeFails(t *testing.T) {
	for _, tc := range []struct {
		mode, flag, want string
	}{
		{"stats", "-listing", "-listing applies only to danactl, not to danactl stats"},
		{"trace", "-listing", "-listing applies only to danactl, not to danactl trace"},
		{"train", "-json", "-json applies only to danactl stats, not to danactl"},
		{"trace", "-json", "-json applies only to danactl stats, not to danactl trace"},
	} {
		var b bytes.Buffer
		err := run(&b, tc.mode, []string{tc.flag})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: err = %v, want %q", tc.mode, tc.flag, err, tc.want)
		}
		if b.Len() != 0 {
			t.Errorf("%s %s printed %q before failing", tc.mode, tc.flag, b.String())
		}
	}
}
