package chaos

import (
	"strings"
	"testing"
)

// TestRunCrash is the deterministic crash-recovery gate in miniature: every
// byte boundary of a multi-segment store schedule and every record boundary
// (clean + torn) of an engine churn schedule must recover to the exact
// durable prefix under the original epoch.
func TestRunCrash(t *testing.T) {
	rep, err := RunCrash(CrashConfig{N: 16, Seed: 5, Scheme: "fulltable"})
	if err != nil {
		t.Fatalf("crash sweep failed: %v\nreport: %v", err, rep)
	}
	if rep.ByteSegments < 2 {
		t.Errorf("byte matrix did not rotate: %d segments", rep.ByteSegments)
	}
	if rep.ByteBoundaries < int64(rep.ByteRecords)*13 {
		t.Errorf("byte matrix too small: %d boundaries for %d records", rep.ByteBoundaries, rep.ByteRecords)
	}
	if rep.RecordBoundaries != crashRecords+1 || rep.TornBoundaries != crashRecords {
		t.Errorf("engine matrix boundaries = %d clean / %d torn, want %d/%d",
			rep.RecordBoundaries, rep.TornBoundaries, crashRecords+1, crashRecords)
	}
	if !rep.EpochPreserved || !rep.DigestsIdentical {
		t.Errorf("epoch preserved=%v digests identical=%v", rep.EpochPreserved, rep.DigestsIdentical)
	}
	if rep.Replayed == 0 {
		t.Errorf("no records replayed across restarts")
	}
	if !strings.Contains(rep.String(), "epoch preserved=true") {
		t.Errorf("report string: %q", rep.String())
	}
}

// TestRunCrashRejectsUnknownScheme pins the input validation.
func TestRunCrashRejectsUnknownScheme(t *testing.T) {
	if _, err := RunCrash(CrashConfig{Scheme: "nope"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
