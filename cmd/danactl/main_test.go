package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagOutsideItsModeFails: -listing and -sql are read only by
// training and -json only by the stats subcommand, -sql reads none of
// training's flags and -udf not -epochs; each such flag is a usage error
// naming both, returned before anything is loaded or trained, not a flag
// dropped without a word.
func TestFlagOutsideItsModeFails(t *testing.T) {
	const query = "SELECT COUNT(*) FROM remote_sensing_lr"
	for _, tc := range []struct {
		mode string
		args []string
		want string
	}{
		{"stats", []string{"-listing"}, "-listing applies only to danactl, not to danactl stats"},
		{"trace", []string{"-listing"}, "-listing applies only to danactl, not to danactl trace"},
		{"train", []string{"-json"}, "-json applies only to danactl stats, not to danactl"},
		{"trace", []string{"-json"}, "-json applies only to danactl stats, not to danactl trace"},
		{"stats", []string{"-sql", query}, "-sql applies only to danactl, not to danactl stats"},
		{"trace", []string{"-sql", query}, "-sql applies only to danactl, not to danactl trace"},
		{"train", []string{"-sql", query, "-udf", "udf.dsl"}, "-udf is not read with -sql"},
		{"train", []string{"-sql", query, "-merge", "8"}, "-merge is not read with -sql"},
		{"train", []string{"-sql", query, "-epochs", "2"}, "-epochs is not read with -sql"},
		{"train", []string{"-sql", query, "-listing"}, "-listing is not read with -sql"},
		{"train", []string{"-sql", query, "-backend", "cpu"}, "-backend is not read with -sql"},
		{"train", []string{"-sql", query, "-segments", "4"}, "-segments is not read with -sql"},
		{"train", []string{"-sql", query, "-precision", "8"}, "-precision is not read with -sql"},
		{"train", []string{"-sql", query, "-channels", "4"}, "-channels is not read with -sql"},
		{"train", []string{"-udf", "udf.dsl", "-epochs", "2"}, "-epochs is not read with -udf"},
		{"stats", []string{"-udf", "udf.dsl", "-epochs", "2"}, "-epochs is not read with -udf"},
	} {
		var b bytes.Buffer
		err := run(&b, tc.mode, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: err = %v, want %q", tc.mode, tc.args, err, tc.want)
		}
		if b.Len() != 0 {
			t.Errorf("%s %v printed %q before failing", tc.mode, tc.args, b.String())
		}
	}
}
