// Package jobstore is the durable half of the audit platform: a crash-safe
// journaled job store that lets server-side audit jobs survive restarts, plus
// the tenancy plane built on top of it (API keys, per-tenant rate limits and
// oracle-query quotas, and a re-audit scheduler).
//
// Jobs append state transitions (create/start/checkpoint/done/failed/
// cancelled) to an append-only journal, one record per internal/binio frame.
// A transition is acknowledged only after its record is written and fsynced,
// and folded into memory only after that, so memory never runs ahead of the
// file. On boot the journal is replayed: a partial final frame is a crash
// artifact and is silently truncated away, while a CRC mismatch anywhere
// else is real corruption and fails loudly (binio.ErrCorrupt) with the
// offending offset. Replay ends with a compaction down to the minimal record
// set; a journal that outgrows a size threshold mid-run is compacted live.
// Checkpoint records carry opaque detector search state
// (internal/bprom.Checkpoint), so a rebooted server resumes every
// interrupted audit from its last completed CMA-ES generation — bit-exactly,
// queries and verdict alike.
package jobstore

import (
	"fmt"
	"os"

	"bprom/internal/binio"
)

// Record kinds, one per job state transition. The numeric values are part of
// the on-disk format; append only.
const (
	recCreate     = uint32(1)
	recStart      = uint32(2)
	recCheckpoint = uint32(3)
	recDone       = uint32(4)
	recFailed     = uint32(5)
	recCancelled  = uint32(6)
)

// appendRecord is the one encoder of every record kind: it appends kind and
// job ID, then the kind's fields taken from j, to dst. A transition method
// passes a JobRecord holding its arguments, compaction the replayed record
// itself. Store.apply is the matching decoder.
func appendRecord(dst []byte, kind uint32, j *JobRecord) ([]byte, error) {
	var w binio.Writer
	w.Reset(dst)
	w.U32(kind)
	w.U64(j.ID)
	switch kind {
	case recCreate:
		w.String(j.ModelID)
		w.String(j.Tenant)
		w.U64(uint64(int64(j.InspectID)))
		w.U64(uint64(j.Created.UnixNano()))
	case recCheckpoint:
		w.U64(uint64(j.Generation))
		w.U64(uint64(j.Queries))
		w.Blob(j.Checkpoint)
	case recDone:
		w.F64(j.Verdict.Score)
		w.F64(j.Verdict.Threshold)
		w.Bool(j.Verdict.Backdoored)
		w.F64(j.Verdict.PromptedAcc)
		w.U64(uint64(j.Verdict.Queries))
		w.U64(uint64(j.Finished.UnixNano()))
	case recFailed:
		w.String(j.Error)
		w.String(j.ErrorCode)
		w.U64(uint64(j.Queries))
		w.U64(uint64(j.Finished.UnixNano()))
	case recCancelled:
		w.U64(uint64(j.Finished.UnixNano()))
	}
	return w.Bytes(), w.Err()
}

// replayFile scans the journal at path into record payloads, truncating a
// crash-damaged tail in place. A missing file yields none: a fresh store
// boots clean.
func replayFile(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	payloads, goodLen, err := binio.ScanFrames(f)
	if err != nil {
		return nil, fmt.Errorf("jobstore: journal: %w", err)
	}
	if goodLen < fi.Size() {
		// Drop the partial tail so the next append starts at a frame
		// boundary. This is the normal post-crash path, not an error.
		if err := os.Truncate(path, goodLen); err != nil {
			return nil, fmt.Errorf("jobstore: truncating crash tail: %w", err)
		}
	}
	return payloads, nil
}
