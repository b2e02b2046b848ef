package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func appendN(t *testing.T, l *Log, n int, kind byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(kind, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func collect(t *testing.T, dir string, after uint64) []Record {
	t.Helper()
	var recs []Record
	if err := Replay(dir, after, func(r Record) error {
		recs = append(recs, Record{LSN: r.LSN, Kind: r.Kind, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 7)
	if got := l.LastLSN(); got != 10 {
		t.Fatalf("LastLSN = %d, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, dir, 0)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Kind != 7 {
			t.Fatalf("record %d = {lsn %d, kind %d}", i, r.LSN, r.Kind)
		}
		if want := fmt.Sprintf("payload-%d", i); string(r.Data) != want {
			t.Fatalf("record %d data = %q, want %q", i, r.Data, want)
		}
	}
	// Replay from a cursor skips the prefix.
	if recs := collect(t, dir, 7); len(recs) != 3 || recs[0].LSN != 8 {
		t.Fatalf("replay after 7: got %d records starting at %d", len(recs), recs[0].LSN)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 1)
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastLSN(); got != 5 {
		t.Fatalf("LastLSN after reopen = %d, want 5", got)
	}
	appendN(t, l2, 5, 2)
	l2.Close()
	recs := collect(t, dir, 0)
	if len(recs) != 10 || recs[9].LSN != 10 || recs[9].Kind != 2 {
		t.Fatalf("after reopen: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 1)
	l.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-record: a crash between write and ack.
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if got := l2.LastLSN(); got != 4 {
		t.Fatalf("LastLSN after torn tail = %d, want 4", got)
	}
	// New appends continue cleanly after the truncation point.
	appendN(t, l2, 1, 9)
	l2.Close()
	recs := collect(t, dir, 0)
	if len(recs) != 5 || recs[4].LSN != 5 || recs[4].Kind != 9 {
		t.Fatalf("after truncation: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

func TestCorruptMiddleRecordEndsReplayAtTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 1)
	l.Close()

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	b, _ := os.ReadFile(path)
	// Flip a payload byte of the middle record: CRC must catch it, and the
	// records after it become unreachable (they are the torn tail now).
	b[len(b)/2] ^= 0xff
	os.WriteFile(path, b, 0o644)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got := l2.LastLSN(); got >= 5 {
		t.Fatalf("LastLSN = %d, want < 5 after mid-file corruption", got)
	}
	l2.Close()
}

func TestCheckpointRetiresSegmentsAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 1)
	for i := 0; i < 3; i++ {
		lsn := l.LastLSN()
		if _, err := WriteSnapshot(dir, lsn, []byte(fmt.Sprintf("snap-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := l.Checkpoint(lsn); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 10, byte(2+i))
	}
	segs, _ := listSegments(dir)
	// Only segments holding records past the last checkpoint survive.
	for _, s := range segs {
		if s.start <= 20 {
			t.Fatalf("segment %s (start %d) should have been retired", s.name, s.start)
		}
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) > 2 {
		t.Fatalf("%d snapshots kept, want <= 2", len(snaps))
	}
	// Replay from the latest snapshot boundary covers exactly the tail.
	lsn, payload, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 30 || string(payload) != "snap-2" {
		t.Fatalf("latest snapshot = (%d, %q), want (30, snap-2)", lsn, payload)
	}
	recs := collect(t, dir, lsn)
	if len(recs) != 10 || recs[0].LSN != 31 {
		t.Fatalf("tail after snapshot: %d records from %d", len(recs), recs[0].LSN)
	}
	l.Close()
}

func TestLatestSnapshotFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 5, []byte("old")); err != nil {
		t.Fatal(err)
	}
	path, err := WriteSnapshot(dir, 9, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xff
	os.WriteFile(path, b, 0o644)

	lsn, payload, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 || string(payload) != "old" {
		t.Fatalf("fallback snapshot = (%d, %q), want (5, old)", lsn, payload)
	}
}

func TestLatestSnapshotEmptyDir(t *testing.T) {
	lsn, payload, err := LatestSnapshot(t.TempDir())
	if err != nil || lsn != 0 || payload != nil {
		t.Fatalf("empty dir: (%d, %v, %v)", lsn, payload, err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: pol, FsyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 20, 1)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := len(collect(t, dir, 0)); got != 20 {
				t.Fatalf("replayed %d, want 20", got)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(1, []byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestOversizedRecordRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, make([]byte, maxRecordBytes)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The refused record must not have disturbed the log.
	if _, err := l.Append(1, []byte("ok")); err != nil {
		t.Fatalf("append after refusal: %v", err)
	}
}

func TestDecodeStreamRejectsLSNGap(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, 1, 1, []byte("a"))
	buf = appendRecord(buf, 3, 1, []byte("b")) // gap: 2 missing
	end, err := decodeStream(bytes.NewReader(buf), 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if end.last != 1 || !end.torn {
		t.Fatalf("end = %+v, want last=1 torn=true", end)
	}
}

// TestReopenAfterCheckpointKeepsLSNContinuity is the regression test for
// the empty-active-segment bug: a checkpoint that retires every record
// leaves only an empty segment, and the next Open must take the LSN
// high-water mark from the segment's filename — otherwise new appends
// reuse already-covered LSNs and replay silently drops them on the
// following restart.
func TestReopenAfterCheckpointKeepsLSNContinuity(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 1)
	if _, err := WriteSnapshot(dir, 5, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(5); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Reopen: only the empty post-checkpoint segment exists.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastLSN(); got != 5 {
		t.Fatalf("LastLSN after checkpointed reopen = %d, want 5", got)
	}
	appendN(t, l2, 3, 2)
	l2.Close()

	// The new records are past the snapshot boundary and replayable.
	lsn, _, err := LatestSnapshot(dir)
	if err != nil || lsn != 5 {
		t.Fatalf("snapshot boundary = (%d, %v)", lsn, err)
	}
	recs := collect(t, dir, lsn)
	if len(recs) != 3 || recs[0].LSN != 6 || recs[2].LSN != 8 {
		t.Fatalf("replay after boundary: %d records, first %+v", len(recs), recs)
	}

	// Third generation: reopen once more and keep appending.
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l3.LastLSN(); got != 8 {
		t.Fatalf("LastLSN third generation = %d, want 8", got)
	}
	l3.Close()
}

func TestOpenSweepsOrphanedSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "snap-0000000000000005.db.tmp-1234")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned snapshot temp survived Open: %v", err)
	}
}

// TestFailedIntervalFsyncIsSticky pins the fail-stop rule for the
// interval policy: once the background fsync fails, the log is
// read-only. A later fsync that succeeds could not vouch for pages the
// kernel already dropped, so neither Sync nor Append may report success
// again.
func TestFailedIntervalFsyncIsSticky(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: FsyncInterval, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 3, 1)
	// Pull the segment out from under the flush ticker: its next fsync
	// fails.
	l.mu.Lock()
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	l.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	var sticky error
	for sticky == nil {
		if time.Now().After(deadline) {
			t.Fatal("flush ticker never recorded the failed fsync")
		}
		time.Sleep(time.Millisecond)
		l.mu.Lock()
		sticky = l.failed
		l.mu.Unlock()
	}
	if !errors.Is(sticky, os.ErrClosed) || !strings.HasPrefix(sticky.Error(), "wal: fsync failed, log is read-only: ") {
		t.Fatalf("sticky error = %v", sticky)
	}
	for i := 0; i < 3; i++ {
		if err := l.Sync(); err != sticky {
			t.Fatalf("Sync %d = %v, want the sticky %v", i, err, sticky)
		}
		if _, err := l.Append(1, []byte("after")); err != sticky {
			t.Fatalf("Append %d = %v, want the sticky %v", i, err, sticky)
		}
	}
	if err := l.Checkpoint(l.LastLSN()); err != sticky {
		t.Fatalf("Checkpoint = %v, want the sticky %v", err, sticky)
	}
}
