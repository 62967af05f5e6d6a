package sweep

// Envelope file I/O: shard results and checkpoints are plain JSON files,
// so any transport that can move a file (scp, object storage, CI
// artifacts) can move a shard between the process that ran it and the
// process that merges it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WriteFile writes the envelope as indented JSON to path ("-" writes to
// w if non-nil, else stdout).
func (e Envelope) WriteFile(path string, w io.Writer) error {
	data, err := encodeEnvelope(e, "  ")
	if err != nil {
		return err
	}
	if path == "-" {
		if w == nil {
			w = os.Stdout
		}
		_, err := w.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// encodeEnvelope is the one envelope encoder, behind shard files and
// checkpoints alike: newline-terminated JSON indented by indent ("" is
// compact), without HTML escaping. Escaping would rewrite & < > inside
// job payloads, so a payload that is legal JSON with those bytes would
// come back from the file with a different fingerprint and be rejected
// as corrupt.
func encodeEnvelope(e Envelope, indent string) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", indent)
	if err := enc.Encode(e); err != nil {
		return nil, fmt.Errorf("sweep: encoding envelope: %w", err)
	}
	return buf.Bytes(), nil
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory and a rename, so a kill mid-write leaves the previous file
// intact and the destination always holds a complete checkpoint.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadCheckpoint reads the checkpoint at path and validates it against
// the freshly planned shard with checkEnvelope, returning its completed
// jobs. A missing file is a clean cold start (nil, nil). Anything else
// that is wrong is an error: silently discarding a checkpoint would hide
// exactly the mismatch the configuration digest exists to catch.
func loadCheckpoint(s Sweep, plan []Job, shard, shards int, path string) ([]JobResult, error) {
	prior, err := ReadEnvelope(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err == nil {
		err = checkEnvelope(s, plan, prior, shard, shards, "checkpoint "+path)
	}
	if err != nil {
		return nil, err
	}
	return prior.Jobs, nil
}

// ReadEnvelope parses one shard envelope file.
func ReadEnvelope(path string) (Envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Envelope{}, err
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Envelope{}, fmt.Errorf("sweep: parsing envelope %s: %w", path, err)
	}
	if env.Schema != EnvelopeSchema {
		return Envelope{}, fmt.Errorf("sweep: %s: schema %q, want %q", path, env.Schema, EnvelopeSchema)
	}
	return env, nil
}

// ReadEnvelopes expands each argument as a glob pattern (a literal path
// matches itself) and parses every matched envelope. The expansion is
// sorted, so results are deterministic whatever the shell did.
func ReadEnvelopes(patterns []string) ([]Envelope, error) {
	var paths []string
	for _, pat := range patterns {
		matches, err := filepath.Glob(pat)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad shard pattern %q: %w", pat, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("sweep: shard pattern %q matched no files", pat)
		}
		paths = append(paths, matches...)
	}
	sort.Strings(paths)
	envs := make([]Envelope, 0, len(paths))
	for _, p := range paths {
		env, err := ReadEnvelope(p)
		if err != nil {
			return nil, err
		}
		envs = append(envs, env)
	}
	return envs, nil
}

// ParseShardSpec parses a "-shard k/n" flag value.
func ParseShardSpec(s string) (shard, shards int, err error) {
	k, n, ok := strings.Cut(s, "/")
	if ok {
		var errK, errN error
		shard, errK = strconv.Atoi(k)
		shards, errN = strconv.Atoi(n)
		ok = errK == nil && errN == nil
	}
	if !ok {
		return 0, 0, fmt.Errorf("sweep: bad shard spec %q (want k/n, e.g. 0/4)", s)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("sweep: bad shard spec %q: shard must be in 0..n-1", s)
	}
	return shard, shards, nil
}
