package bgp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rrr/internal/trie"
)

// The text codec mirrors the human-readable dump format shown in the paper's
// Fig 3:
//
//	TIME: 1234567
//	TYPE: ANNOUNCE
//	FROM: 195.66.224.175 AS13030
//	ASPATH: 13030 1299 2914 18747
//	COMMUNITY: 13030:2 13030:1299 13030:51701
//	MED: 0
//	ANNOUNCE: 200.61.128.0/19
//
// Records are separated by blank lines. Withdrawals use "WITHDRAW:" in place
// of "ANNOUNCE:" and omit ASPATH/COMMUNITY/MED.

// TextWriter serializes updates in the text dump format.
type TextWriter struct {
	w *bufio.Writer
}

// NewTextWriter wraps w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriter(w)}
}

// Write emits one update record.
func (tw *TextWriter) Write(u Update) error {
	fmt.Fprintf(tw.w, "TIME: %d\n", u.Time)
	fmt.Fprintf(tw.w, "TYPE: %s\n", u.Type)
	fmt.Fprintf(tw.w, "FROM: %s AS%d\n", trie.FormatIP(u.PeerIP), uint32(u.PeerAS))
	if u.Type == Announce {
		fmt.Fprintf(tw.w, "ASPATH: %s\n", u.ASPath)
		if len(u.Communities) > 0 {
			fmt.Fprintf(tw.w, "COMMUNITY: %s\n", u.Communities)
		}
		fmt.Fprintf(tw.w, "MED: %d\n", u.MED)
		fmt.Fprintf(tw.w, "ANNOUNCE: %s\n", u.Prefix)
	} else {
		fmt.Fprintf(tw.w, "WITHDRAW: %s\n", u.Prefix)
	}
	_, err := tw.w.WriteString("\n")
	return err
}

// Flush flushes the underlying buffer.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }

// TextReader parses updates from the text dump format.
type TextReader struct {
	s    *bufio.Scanner
	line int
}

// NewTextReader wraps r.
func NewTextReader(r io.Reader) *TextReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), 1024*1024)
	return &TextReader{s: s}
}

// Read parses the next record. It returns io.EOF when the stream ends.
func (tr *TextReader) Read() (Update, error) {
	var (
		u       Update
		sawTime bool
		sawFrom bool
		sawPfx  bool
	)
	for tr.s.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.s.Text())
		if line == "" {
			if sawTime || sawFrom || sawPfx {
				break
			}
			continue // leading blank lines
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return u, fmt.Errorf("bgp: text line %d: no key", tr.line)
		}
		key := line[:colon]
		val := strings.TrimSpace(line[colon+1:])
		switch key {
		case "TIME":
			t, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return u, fmt.Errorf("bgp: text line %d: bad TIME %q", tr.line, val)
			}
			u.Time = t
			sawTime = true
		case "TYPE":
			switch val {
			case "ANNOUNCE":
				u.Type = Announce
			case "WITHDRAW":
				u.Type = Withdraw
			default:
				return u, fmt.Errorf("bgp: text line %d: bad TYPE %q", tr.line, val)
			}
		case "FROM":
			fields := strings.Fields(val)
			if len(fields) != 2 || !strings.HasPrefix(fields[1], "AS") {
				return u, fmt.Errorf("bgp: text line %d: bad FROM %q", tr.line, val)
			}
			ip, err := trie.ParseIP(fields[0])
			if err != nil {
				return u, fmt.Errorf("bgp: text line %d: %v", tr.line, err)
			}
			as, err := strconv.ParseUint(fields[1][2:], 10, 32)
			if err != nil {
				return u, fmt.Errorf("bgp: text line %d: bad peer AS %q", tr.line, fields[1])
			}
			u.PeerIP, u.PeerAS = ip, ASN(as)
			sawFrom = true
		case "ASPATH":
			p, err := parsePath(val)
			if err != nil {
				return u, fmt.Errorf("bgp: text line %d: %v", tr.line, err)
			}
			u.ASPath = p
		case "COMMUNITY":
			for _, tok := range strings.Fields(val) {
				c, err := parseCommunity(tok)
				if err != nil {
					return u, fmt.Errorf("bgp: text line %d: %v", tr.line, err)
				}
				u.Communities = append(u.Communities, c)
			}
		case "MED":
			m, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return u, fmt.Errorf("bgp: text line %d: bad MED %q", tr.line, val)
			}
			u.MED = uint32(m)
		case "ANNOUNCE", "WITHDRAW":
			p, err := trie.ParsePrefix(val)
			if err != nil {
				return u, fmt.Errorf("bgp: text line %d: %v", tr.line, err)
			}
			u.Prefix = p
			if key == "WITHDRAW" {
				u.Type = Withdraw
			}
			sawPfx = true
		default:
			return u, fmt.Errorf("bgp: text line %d: unknown key %q", tr.line, key)
		}
	}
	if err := tr.s.Err(); err != nil {
		return u, err
	}
	if !sawTime && !sawFrom && !sawPfx {
		return u, io.EOF
	}
	if !sawTime || !sawFrom || !sawPfx {
		return u, fmt.Errorf("bgp: text record before line %d incomplete", tr.line)
	}
	return u, nil
}
