// Package framelog is the one durable append-only log format behind
// every on-disk log in cookiewalk: the campaign checkpoint journals
// ("cwjl1\n"), the trend round store ("cwts1\n") and the fleet lease
// ledger ("cwled2\n"). It is the only code that knows the frame
// layout, the checksum and the open/scan/truncate discipline; payloads
// are opaque to it, and each caller keeps its own payload codec and
// durability policy.
//
// File layout:
//
//	file  := magic frame*
//	frame := uvarint(len(payload)) u64le(checksum) payload
//
// The checksum is 64-bit FNV-1a over the payload (bit-identical to
// xrand.Hash64 on the equivalent string, which never changes between
// releases).
//
// Crash-safety argument. Writers only ever append whole frames after
// the last valid one, so a crash at ANY byte leaves a file that is a
// valid prefix plus at most one damaged tail:
//
//   - Scan stops at the first frame whose length prefix is torn or
//     overruns the data, whose checksum mismatches, or whose payload the
//     caller rejects. Everything before it is intact by checksum;
//     nothing after it is trusted, so a torn write can only shrink a
//     log, never poison it.
//   - Open truncates that tail before positioning the writer, so new
//     frames always extend a consistent prefix.
//   - A missing or empty file, or one holding a strict prefix of the
//     magic (a crash while the file was being created), is a fresh log:
//     it gets the magic and its directory is fsynced, so the new entry
//     survives power loss. A file that starts with a different,
//     full-length magic is not this log at all and Open reports
//     ErrBadMagic; the caller decides whether to rewrite or refuse it.
//   - Bytes reach the OS only on Flush (or when the buffer fills) and
//     the disk only on Sync. Each caller picks when: the journal flushes
//     every Checkpoint.FlushEvery records and syncs at shard close, the
//     store and the ledger sync every append.
//
// Identity manifests (WriteManifest) are replaced atomically — tmp
// file, fsync, rename, directory fsync — so a crash mid-write leaves
// either the old manifest or the new one, never a truncated file that
// would make the directory unopenable.
package framelog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// maxFrame bounds a frame's declared payload length during scans. It
// exists to reject absurd length prefixes in corrupted files, not to
// limit real payloads (64 MiB dwarfs any journal record or round).
const maxFrame = 64 << 20

// bufSize is the writer's buffer, bufio's default: Append writes the
// buffered frames out when the next one would not fit.
const bufSize = 4 << 10

// ErrBadMagic reports a file that begins with a different, full-length
// magic: not a torn log, but some other file.
var ErrBadMagic = errors.New("framelog: bad magic")

// checksum is the frame checksum: 64-bit FNV-1a over p.
func checksum(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Scan walks the frames of data, which must begin with magic, calling
// fn with each checksummed payload in order; fn returning false marks
// that frame invalid. It returns the number of valid frames and the
// byte offset just past the last one — len(magic) for a log with no
// frames, 0 when data does not begin with magic. Payloads alias data.
func Scan(data []byte, magic string, fn func(payload []byte) bool) (records, valid int) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return 0, 0
	}
	valid = len(magic)
	for rest := data[valid:]; len(rest) > 0; {
		plen, n := binary.Uvarint(rest)
		if n <= 0 || plen > maxFrame || uint64(len(rest)-n) < 8+plen {
			break
		}
		sum := binary.LittleEndian.Uint64(rest[n:])
		payload := rest[n+8 : n+8+int(plen)]
		if checksum(payload) != sum || !fn(payload) {
			break
		}
		records++
		size := n + 8 + int(plen)
		valid += size
		rest = rest[size:]
	}
	return records, valid
}

// Writer appends frames to an open log. It is not safe for concurrent
// use.
type Writer struct {
	f   *os.File
	buf []byte
}

// Open opens (or creates) the log at path, calls fn with the payload
// of every valid frame (see Scan), truncates whatever follows the last
// valid frame, and returns a writer positioned there. A missing, empty
// or torn-magic file gets a fresh magic; a foreign magic returns an
// error wrapping ErrBadMagic and leaves the file untouched.
func Open(path, magic string, fn func(payload []byte) bool) (*Writer, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if len(data) >= len(magic) && string(data[:len(magic)]) != magic ||
		len(data) < len(magic) && !strings.HasPrefix(magic, string(data)) {
		return nil, fmt.Errorf("%w: %s", ErrBadMagic, path)
	}
	_, valid := Scan(data, magic, fn)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, buf: make([]byte, 0, bufSize)}
	if err := w.reset(path, magic, valid); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// reset truncates the file to valid bytes and positions the writer
// there, writing a fresh magic (and fsyncing the directory that now
// holds the log) when no valid prefix exists.
func (w *Writer) reset(path, magic string, valid int) error {
	if err := w.f.Truncate(int64(valid)); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(valid), 0); err != nil {
		return err
	}
	if valid > 0 {
		return nil
	}
	if _, err := w.f.WriteString(magic); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// Append frames p into the writer's buffer. It allocates nothing once
// the buffer has grown to the largest frame, and writes to the file
// only when the frame would not fit in the buffer.
func (w *Writer) Append(p []byte) error {
	if len(w.buf) > 0 && len(w.buf)+binary.MaxVarintLen64+8+len(p) > cap(w.buf) {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(len(p)))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, checksum(p))
	w.buf = append(w.buf, p...)
	return nil
}

// Flush writes the buffered frames to the file.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Sync flushes and then fsyncs the file: every frame appended so far
// is durable when it returns nil.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close syncs and closes the file.
func (w *Writer) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile writes data to path (created or truncated) and fsyncs it
// before returning. Publishing the file under another name, durably,
// is then a rename plus SyncDir.
func WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs directory dir, making the entries created, renamed or
// removed in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteManifest atomically replaces the manifest at path with v's JSON
// encoding (plus a newline): it is written to a tmp file, fsynced,
// renamed over path and the directory fsynced.
func WriteManifest(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := WriteFile(tmp, append(data, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// ReadManifest decodes the manifest at path into v. A missing manifest
// returns an error satisfying errors.Is(err, os.ErrNotExist).
func ReadManifest(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("manifest %s is corrupt: %w", path, err)
	}
	return nil
}
