package campaign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cookiewalk/internal/framelog"
)

// The journal is the campaign engine's durable record of delivered
// results: one append-only internal/framelog file per shard (magic
// "cwjl1\n"), written in delivery order (strictly increasing target
// index), so a crash at ANY byte leaves a prefix-consistent log —
// every fully framed record describes a result that the sink really
// observed, and at most the torn tail record is lost (its target
// simply re-runs on resume). framelog owns the frame format and the
// crash-safety argument; a journal frame's payload is
//
//	payload := uvarint(index) uvarint(len(err)) err value
//
// where value is the caller codec's encoding of the result, opaque to
// the journal. A checksummed frame whose payload is malformed ends the
// valid prefix exactly like a torn frame.

// journalMagic identifies (and versions) journal files.
const journalMagic = "cwjl1\n"

// journalRecord is one replayable result loaded from a journal.
type journalRecord struct {
	// errStr is the visit error's message ("" for success); the value
	// bytes are the codec's encoding of the result value.
	errStr string
	value  []byte
	// ok marks a loaded record in the replay index, whose slots for
	// unjournaled targets stay zero.
	ok bool
}

// ShardFilename returns the journal file name of shard s inside a
// checkpoint directory ("shard-0003.cwj") — shared by the engine's
// writers and the fleet layer's journal shipping, so a worker-produced
// range journal lands under exactly the name a local run would use.
func ShardFilename(s int) string {
	return fmt.Sprintf("shard-%04d.cwj", s)
}

// shardFile names shard s's journal inside a checkpoint dir. Loading
// never relies on the name — records are self-describing — so resumes
// with a different shard count interoperate with existing files.
func shardFile(dir string, shard int) string {
	return filepath.Join(dir, ShardFilename(shard))
}

// CheckJournal verifies that data is a COMPLETE, well-formed journal of
// the global target range [lo, hi): intact magic, every frame valid
// with no trailing bytes, and record indices exactly lo..hi-1 in
// delivery order. The fleet coordinator runs it on every shipped shard
// journal before merging, so a torn upload, a half-finished range or a
// journal from the wrong range can never poison an assembled campaign.
func CheckJournal(data []byte, lo, hi int) error {
	next, firstBad := lo, -1
	records, valid := scanJournal(data, func(index int, rec journalRecord) {
		if index != next && firstBad < 0 {
			firstBad = index
		}
		next++
	})
	switch {
	case valid == 0:
		return fmt.Errorf("campaign: journal missing magic header")
	case valid != len(data):
		return fmt.Errorf("campaign: journal invalid after %d of %d bytes (%d valid records)", valid, len(data), records)
	case firstBad >= 0:
		return fmt.Errorf("campaign: journal out of order: saw index %d where %d..%d expected in sequence", firstBad, lo, hi-1)
	case records != hi-lo:
		return fmt.Errorf("campaign: journal covers %d of %d records for range [%d,%d)", records, hi-lo, lo, hi)
	}
	return nil
}

// journalWriter appends records to one shard's journal, flushing every
// `every` records and syncing on close.
type journalWriter struct {
	w     *framelog.Writer
	buf   []byte // payload scratch, reused across appends
	every int
	since int
}

// openJournal opens (or creates) a shard journal for appending,
// truncated to its last valid record so appends always extend a
// consistent prefix. A file that is not a journal at all holds nothing
// trustworthy and is rewritten from scratch.
func openJournal(path string, flushEvery int) (*journalWriter, error) {
	if flushEvery <= 0 {
		flushEvery = defaultFlushEvery
	}
	w, err := framelog.Open(path, journalMagic, validPayload)
	if errors.Is(err, framelog.ErrBadMagic) {
		if err = os.Truncate(path, 0); err == nil {
			w, err = framelog.Open(path, journalMagic, validPayload)
		}
	}
	if err != nil {
		return nil, err
	}
	return &journalWriter{w: w, every: flushEvery}, nil
}

// append frames and buffers one record, encoding *v (a *R, see Codec)
// straight into the payload scratch after the record header.
func (jw *journalWriter) append(index int, errStr string, codec Codec, v any) error {
	p := binary.AppendUvarint(jw.buf[:0], uint64(index))
	p = binary.AppendUvarint(p, uint64(len(errStr)))
	p = append(p, errStr...)
	p, err := codec.Append(p, v)
	if err != nil {
		return fmt.Errorf("encode index %d: %w", index, err)
	}
	jw.buf = p // keep the grown scratch for the next record
	if err := jw.w.Append(p); err != nil {
		return err
	}
	jw.since++
	if jw.since >= jw.every {
		jw.since = 0
		return jw.w.Flush()
	}
	return nil
}

// close flushes, syncs and closes the journal. Called at shard end, it
// makes the shard's whole record sequence durable.
func (jw *journalWriter) close() error {
	return jw.w.Close()
}

// scanJournal parses one journal's bytes, calling emit (if non-nil)
// for every valid record, and returns the record count and the byte
// offset of the end of the last valid record (0 without a magic).
func scanJournal(data []byte, emit func(index int, rec journalRecord)) (records, valid int) {
	return framelog.Scan(data, journalMagic, func(payload []byte) bool {
		index, errStr, value, ok := parsePayload(payload)
		if ok && emit != nil {
			emit(index, journalRecord{errStr: errStr, value: value})
		}
		return ok
	})
}

// validPayload reports whether a frame payload parses as a record.
func validPayload(p []byte) bool {
	_, _, _, ok := parsePayload(p)
	return ok
}

// parsePayload splits a record payload into (index, errStr, value).
func parsePayload(p []byte) (index int, errStr string, value []byte, ok bool) {
	idx, n := binary.Uvarint(p)
	if n <= 0 || idx > 1<<62 {
		return 0, "", nil, false
	}
	p = p[n:]
	elen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < elen {
		return 0, "", nil, false
	}
	errStr = string(p[n : n+int(elen)])
	value = p[n+int(elen):]
	return int(idx), errStr, value, true
}

// loadJournals reads every journal file in dir and returns the union
// of their valid records indexed by target: slot i holds target i's
// record (ok set) or nothing. Records are self-describing, so the index
// is correct even when the files were written under a different shard
// layout than the resuming run's. A record whose index is not below n
// belongs to no target of this campaign and is dropped; on a duplicate
// index the file that sorts last wins.
func loadJournals(dir string, n int) ([]journalRecord, error) {
	replay := make([]journalRecord, n)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return replay, nil
		}
		return nil, err
	}
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cwj") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		scanJournal(data, func(index int, rec journalRecord) {
			if index < n {
				rec.ok = true
				replay[index] = rec
			}
		})
	}
	return replay, nil
}

// removeJournals deletes every journal file (and manifest) in dir —
// the fresh-start path of a checkpointed Run.
func removeJournals(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".cwj") || e.Name() == manifestName {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
