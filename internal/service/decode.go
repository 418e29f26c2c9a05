package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"jetstream"
)

// decodeStrict decodes exactly one JSON value from r into v: unknown fields
// are errors, and so is anything but whitespace after the value. It is the
// wire contract of every request body; decodeBatch below implements the same
// contract for the one body shape that is on the data path.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
		return err
	}
	return nil
}

// The wire names of WireBatch and WireEdge, in field order.
var (
	batchFields = []string{"inserts", "deletes"}
	edgeFields  = []string{"src", "dst", "weight"}
)

// batchDecoder scans a batch body left to right, appending edges straight
// into the engine's batch type: no intermediate WireBatch, no reflection.
type batchDecoder struct {
	data []byte
	pos  int
}

// decodeBatch parses a POST …/batch body. It accepts and rejects exactly
// what decodeStrict into a WireBatch does and returns bit for bit the Batch
// WireBatch.Batch would (FuzzDecodeBatch holds the two against each other),
// including encoding/json's corners: keys match case-insensitively and may be
// escaped, null leaves a number alone and empties an array, a repeated key
// decodes on top of what the first occurrence left, integers take no sign,
// fraction or exponent, and a weight that overflows float64 is an error.
func decodeBatch(data []byte) (jetstream.Batch, error) {
	d := batchDecoder{data: data}
	var b jetstream.Batch
	switch d.next() {
	case 'n':
		if err := d.null(); err != nil {
			return jetstream.Batch{}, err
		}
	case '{':
		d.pos++
		if err := d.batch(&b); err != nil {
			return jetstream.Batch{}, err
		}
	default:
		return jetstream.Batch{}, d.fail("want a batch object")
	}
	if d.next() != 0 || d.pos != len(d.data) {
		return jetstream.Batch{}, d.fail("unexpected data after the batch object")
	}
	if len(b.Inserts) == 0 {
		b.Inserts = nil
	}
	if len(b.Deletes) == 0 {
		b.Deletes = nil
	}
	return b, nil
}

func (d *batchDecoder) fail(what string) error {
	return fmt.Errorf("%w: body: %s at offset %d", ErrInvalid, what, d.pos)
}

// next skips JSON whitespace and returns the byte at the cursor without
// consuming it; 0 at the end of input (a literal NUL is valid nowhere, so
// callers need not tell the two apart).
func (d *batchDecoder) next() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// null consumes the literal null.
func (d *batchDecoder) null() error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		return d.fail("invalid literal")
	}
	d.pos += len("null")
	return nil
}

// sep consumes the separator after an object member or array element and
// reports whether another one follows.
func (d *batchDecoder) sep(end byte) (more bool, err error) {
	switch d.next() {
	case ',':
		d.pos++
		return true, nil
	case end:
		d.pos++
		return false, nil
	}
	return false, d.fail("want ',' or '" + string(end) + "'")
}

// key consumes an object key and the colon behind it and returns the index
// of the name it selects among names — byte-equal, or equal under Unicode
// case folding once unquoted, as encoding/json matches struct fields. Any
// other key is an error: unknown fields are disallowed.
func (d *batchDecoder) key(names []string) (int, error) {
	if d.next() != '"' {
		return 0, d.fail("want an object key")
	}
	start, end, escaped := d.pos, d.pos+1, false
	for ; end < len(d.data) && d.data[end] != '"'; end++ {
		if d.data[end] == '\\' {
			escaped = true
			end++
		}
	}
	if end >= len(d.data) {
		return 0, d.fail("unterminated object key")
	}
	d.pos = end + 1
	field := -1
	if !escaped {
		for i, name := range names {
			if string(d.data[start+1:end]) == name {
				field = i
				break
			}
		}
	}
	if field < 0 {
		// Escapes, other letter case, or not a field at all: let
		// encoding/json unquote (and validate) the token, off the fast path.
		var key string
		if err := json.Unmarshal(d.data[start:end+1], &key); err != nil {
			d.pos = start
			return 0, d.fail("invalid object key")
		}
		for i, name := range names {
			if strings.EqualFold(key, name) {
				field = i
				break
			}
		}
		if field < 0 {
			d.pos = start
			return 0, d.fail("unknown field " + strconv.Quote(key))
		}
	}
	if d.next() != ':' {
		return 0, d.fail("want ':' after the object key")
	}
	d.pos++
	return field, nil
}

// batch decodes the members of the batch object; the '{' is consumed.
func (d *batchDecoder) batch(b *jetstream.Batch) error {
	if d.next() == '}' {
		d.pos++
		return nil
	}
	for more := true; more; {
		field, err := d.key(batchFields)
		if err != nil {
			return err
		}
		dst := &b.Inserts
		if field == 1 {
			dst = &b.Deletes
		}
		if err := d.edges(dst); err != nil {
			return err
		}
		if more, err = d.sep('}'); err != nil {
			return err
		}
	}
	return nil
}

// edges decodes one edge array onto *dst. Element i is decoded on top of
// whatever (*dst)[:cap][i] holds — zeros, unless an earlier occurrence of
// the same key left an edge there — and null or [] drop the array altogether.
func (d *batchDecoder) edges(dst *[]jetstream.Edge) error {
	switch d.next() {
	case 'n':
		*dst = nil
		return d.null()
	case '[':
		d.pos++
	default:
		return d.fail("want an array of edges")
	}
	if d.next() == ']' {
		d.pos++
		*dst = nil
		return nil
	}
	s := *dst
	if cap(s) == 0 {
		// One allocation for the whole array: each element that is not null
		// opens with a brace, and a valid edge object contains no ']'.
		rest := d.data[d.pos:]
		if end := bytes.IndexByte(rest, ']'); end >= 0 {
			rest = rest[:end]
		}
		s = make([]jetstream.Edge, 0, bytes.Count(rest, []byte("{")))
	}
	i := 0
	for more := true; more; i++ {
		if i == cap(s) {
			// Only null elements or a repeated key outgrow the hint.
			s = append(s[:i], jetstream.Edge{})
		}
		s = s[:max(len(s), i+1)]
		switch d.next() {
		case 'n':
			if err := d.null(); err != nil {
				return err
			}
		case '{':
			d.pos++
			if err := d.edge(&s[i]); err != nil {
				return err
			}
		default:
			return d.fail("want an edge object")
		}
		var err error
		if more, err = d.sep(']'); err != nil {
			return err
		}
	}
	*dst = s[:i]
	return nil
}

// edge decodes the members of one edge object onto e; the '{' is consumed.
func (d *batchDecoder) edge(e *jetstream.Edge) error {
	if d.next() == '}' {
		d.pos++
		return nil
	}
	for more := true; more; {
		field, err := d.key(edgeFields)
		if err != nil {
			return err
		}
		switch {
		case d.next() == 'n':
			err = d.null()
		case field == 0:
			e.Src, err = d.vertex()
		case field == 1:
			e.Dst, err = d.vertex()
		default:
			e.Weight, err = d.weight()
		}
		if err != nil {
			return err
		}
		if more, err = d.sep('}'); err != nil {
			return err
		}
	}
	return nil
}

// vertex consumes an unsigned decimal integer that fits uint32. A sign,
// fraction or exponent stops the scan and fails the separator check behind
// it, as it fails encoding/json's ParseUint.
func (d *batchDecoder) vertex() (uint32, error) {
	start := d.pos
	var n uint64
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		n = n*10 + uint64(d.data[d.pos]-'0')
		d.pos++
		if n > math.MaxUint32 {
			return 0, d.fail("vertex id overflows uint32")
		}
		if n == 0 {
			break // a leading zero is the whole number
		}
	}
	if d.pos == start {
		return 0, d.fail("want an unsigned integer")
	}
	return uint32(n), nil
}

// weight consumes a number in JSON's grammar and converts it the way
// encoding/json does.
func (d *batchDecoder) weight() (float64, error) {
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case !d.digits():
		return 0, d.fail("want a number")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if !d.digits() {
			return 0, d.fail("want digits after the decimal point")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if !d.digits() {
			return 0, d.fail("want digits in the exponent")
		}
	}
	w, err := strconv.ParseFloat(string(d.data[start:d.pos]), 64)
	if err != nil {
		d.pos = start
		return 0, d.fail("weight out of range")
	}
	return w, nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *batchDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}
