package httpwire

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Response is an HTTP/1.1 response with a fully buffered body.
type Response struct {
	Proto      string
	StatusCode int
	Status     string // reason phrase
	Headers    []Header
	Body       []byte
}

// NewResponse builds a response with the given status and body, setting
// Content-Length automatically.
func NewResponse(code int, reason string, body []byte) *Response {
	return &Response{
		Proto:      "HTTP/1.1",
		StatusCode: code,
		Status:     reason,
		Body:       body,
		Headers: []Header{
			{Name: "Content-Length", Raw: " " + strconv.Itoa(len(body))},
		},
	}
}

// AddHeader appends a canonical "name: value" header.
func (r *Response) AddHeader(name, value string) *Response {
	r.Headers = append(r.Headers, Header{Name: name, Raw: " " + value})
	return r
}

// HeaderValue returns the trimmed value of the first header matching name
// case-insensitively.
func (r *Response) HeaderValue(name string) (string, bool) {
	for _, h := range r.Headers {
		if strings.EqualFold(h.Name, name) {
			return h.Value(), true
		}
	}
	return "", false
}

// HeaderNames returns the field names in order. OONI's web_connectivity
// compares exactly this set (names, not values) between control and
// experiment responses.
func (r *Response) HeaderNames() []string {
	names := make([]string, len(r.Headers))
	for i, h := range r.Headers {
		names[i] = h.Name
	}
	return names
}

// Marshal renders the response to wire bytes.
func (r *Response) Marshal() []byte {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "%s %d %s%s", r.Proto, r.StatusCode, r.Status, CRLF)
	for _, h := range r.Headers {
		sb.WriteString(h.Name)
		sb.WriteByte(':')
		sb.WriteString(h.Raw)
		sb.WriteString(CRLF)
	}
	sb.WriteString(CRLF)
	sb.Write(r.Body)
	return sb.Bytes()
}

// ParseResponse consumes one response from the front of stream. If the
// header block declares a Content-Length larger than the available bytes it
// returns ErrIncomplete; with no Content-Length the remainder of the stream
// is taken as the body (connection-delimited). It frames the message with
// the same code as ResponseLen, so the two accept the same inputs.
func ParseResponse(stream []byte) (*Response, []byte, error) {
	idx, end, err := frameResponse(stream)
	if err == ErrIncomplete {
		return nil, stream, err
	}
	if err != nil {
		return nil, stream[idx+4:], err
	}
	// frameResponse has validated the status line and every header line.
	lines := strings.Split(string(stream[:idx]), CRLF)
	parts := strings.SplitN(lines[0], " ", 3)
	resp := &Response{Proto: parts[0]}
	resp.StatusCode, _ = strconv.Atoi(parts[1])
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	for _, l := range lines[1:] {
		colon := strings.IndexByte(l, ':')
		resp.Headers = append(resp.Headers, Header{Name: l[:colon], Raw: l[colon+1:]})
	}
	if end < 0 {
		resp.Body = append([]byte(nil), stream[idx+4:]...)
		return resp, nil, nil
	}
	resp.Body = append([]byte(nil), stream[idx+4:end]...)
	return resp, stream[end:], nil
}

// ResponseLen reports how many bytes the response at the front of stream
// occupies, under exactly ParseResponse's acceptance rules, without
// building it: ErrIncomplete while the header block or a declared body is
// still short, another error for a message ParseResponse rejects. A
// response without Content-Length runs to the end of stream. It allocates
// nothing unless it fails, so a receive loop can call it after every event.
func ResponseLen(stream []byte) (int, error) {
	_, end, err := frameResponse(stream)
	if err != nil {
		return 0, err
	}
	if end < 0 {
		return len(stream), nil
	}
	return end, nil
}

// ParseAll parses every complete response at the front of stream, in
// order, stopping at the first one ParseResponse cannot return (short or
// malformed). It returns nil when the stream holds no complete response.
func ParseAll(stream []byte) []*Response {
	var out []*Response
	for len(stream) > 0 {
		resp, rest, err := ParseResponse(stream)
		if err != nil {
			break
		}
		out = append(out, resp)
		stream = rest
	}
	return out
}

var (
	headEnd    = []byte(CRLF + CRLF)
	crlf       = []byte(CRLF)
	httpPrefix = []byte("HTTP/")
)

// frameResponse validates the response at the front of stream and locates
// it: idx is the offset of the blank line ending the header block (valid
// for every error but ErrIncomplete), and end the offset just past the
// body, or -1 when no Content-Length delimits it. The rules: the first
// CRLFCRLF ends the head; the status line is "HTTP/<...> <int>[ reason]";
// every header line has a colon at index > 0; the first Content-Length,
// matched case-insensitively and trimmed of spaces and tabs, is a
// non-negative integer whose bytes have all arrived.
func frameResponse(stream []byte) (idx, end int, err error) {
	idx = bytes.Index(stream, headEnd)
	if idx < 0 {
		return 0, 0, ErrIncomplete
	}
	line, rest, more := cutCRLF(stream[:idx])
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || !bytes.HasPrefix(line[:sp], httpPrefix) {
		return idx, 0, fmt.Errorf("httpwire: malformed status line %q", line)
	}
	code := line[sp+1:]
	if j := bytes.IndexByte(code, ' '); j >= 0 {
		code = code[:j]
	}
	if _, err := strconv.Atoi(string(code)); err != nil {
		return idx, 0, fmt.Errorf("httpwire: bad status code in %q", line)
	}
	var cl []byte
	hasCL := false
	for more {
		line, rest, more = cutCRLF(rest)
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return idx, 0, fmt.Errorf("httpwire: malformed response header %q", line)
		}
		if !hasCL && isContentLength(line[:colon]) {
			cl, hasCL = bytes.Trim(line[colon+1:], " 	"), true
		}
	}
	if !hasCL {
		return idx, -1, nil
	}
	n, err := strconv.Atoi(string(cl))
	if err != nil || n < 0 {
		return idx, 0, fmt.Errorf("httpwire: bad Content-Length %q", cl)
	}
	if len(stream)-(idx+4) < n {
		return idx, 0, ErrIncomplete
	}
	return idx, idx + 4 + n, nil
}

// cutCRLF splits b at its first CRLF, as strings.Split(b, CRLF) would
// yield its first element; more reports whether a CRLF was found.
func cutCRLF(b []byte) (line, rest []byte, more bool) {
	if i := bytes.Index(b, crlf); i >= 0 {
		return b[:i], b[i+2:], true
	}
	return b, nil, false
}

// isContentLength matches a field name against "Content-Length" the way
// strings.EqualFold does. ASCII folding suffices: the only non-ASCII runes
// that fold to ASCII letters are U+212A (k) and U+017F (s), and neither
// letter occurs in the name.
func isContentLength(name []byte) bool {
	const want = "content-length"
	if len(name) != len(want) {
		return false
	}
	for i := range name {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != want[i] {
			return false
		}
	}
	return true
}

// Title extracts the contents of the first <title> element of an HTML body,
// case-insensitively, or "" if none. OONI compares titles between control
// and experiment measurements.
func Title(body []byte) string {
	lower := bytes.ToLower(body)
	start := bytes.Index(lower, []byte("<title>"))
	if start < 0 {
		return ""
	}
	start += len("<title>")
	end := bytes.Index(lower[start:], []byte("</title>"))
	if end < 0 {
		return ""
	}
	return strings.TrimSpace(string(body[start : start+end]))
}
