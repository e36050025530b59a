package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"

	"dcasim/internal/binenc"
	"dcasim/internal/config"
	"dcasim/internal/sim"
)

// A warm entry, <dir>/<warmkey>.warm, stores the encoded warm state of
// one warm key (sim.WarmKeyOf, sim.EncodeWarmState) in a binary
// envelope: the magic warmMagic, config.SchemaVersion and sim.WarmFormat
// (uint32 each), the key's length (uint32) and bytes, the payload's
// length (uint64), the SHA-256 of the payload, and the payload. All
// integers are little-endian. As with result entries, anything that
// fails to verify reads as a miss, and the file is written through the
// same fsync-then-rename path.

// warmMagic opens every warm entry.
const warmMagic = "DCAWARM\x00"

// WarmPath returns the file the warm entry for key lives at (whether or
// not it exists yet).
func (c *Cache) WarmPath(key string) string {
	return filepath.Join(c.dir, key+".warm")
}

// GetWarm returns the encoded warm state stored under key. ok is false
// on a miss or on any integrity failure; the caller warms up either way.
func (c *Cache) GetWarm(key string) (payload []byte, ok bool) {
	if !validKey(key) {
		return nil, false
	}
	data, err := c.fs.ReadFile(c.WarmPath(key))
	if err != nil {
		return nil, false
	}
	return readWarmEntry(data, key)
}

// PutWarm stores an encoded warm state under key, atomically replacing
// any existing entry. Writers of one key in this process serialize.
func (c *Cache) PutWarm(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("rescache: invalid key %q", key)
	}
	lock := c.keyLock(key + ".warm")
	lock.Lock()
	defer lock.Unlock()
	return c.write(key+".warm.tmp*", c.WarmPath(key), warmHeader(key, payload), payload)
}

// warmHeader returns the envelope that precedes payload in its warm
// entry under key.
func warmHeader(key string, payload []byte) []byte {
	b := append([]byte(nil), warmMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(config.SchemaVersion))
	b = binary.LittleEndian.AppendUint32(b, sim.WarmFormat)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	return append(b, sum[:]...)
}

// readWarmEntry returns the payload of a warm entry for key. ok is false
// unless the magic, schema, format and key match, the length is exact
// and the checksum verifies.
func readWarmEntry(data []byte, key string) (payload []byte, ok bool) {
	r := binenc.NewReader(data)
	magic := r.Bytes(len(warmMagic))
	schema, format := r.U32(), r.U32()
	gotKey := r.Bytes(int(r.U32()))
	n := r.U64()
	sum := r.Bytes(sha256.Size)
	if r.Err() != nil || string(magic) != warmMagic || schema != uint32(config.SchemaVersion) ||
		format != sim.WarmFormat || string(gotKey) != key || n > uint64(len(data)) {
		return nil, false
	}
	payload = r.Bytes(int(n))
	if r.End() != nil {
		return nil, false
	}
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return nil, false
	}
	return payload, true
}
