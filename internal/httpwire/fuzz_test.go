package httpwire

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// responseVectors are the response shapes the unit tests exercise, plus
// streams where ParseAll must stop after some complete responses; they
// seed FuzzResponseLen next to the corpus in testdata/fuzz.
func responseVectors() [][]byte {
	full := NewResponse(200, "OK", []byte("<html><title>Hi There</title><body>hello</body></html>")).
		AddHeader("Content-Type", "text/html").
		AddHeader("Server", "repro/1.0").
		Marshal()
	short := NewResponse(200, "OK", []byte("0123456789")).Marshal()
	pipelined := append(NewResponse(200, "OK", []byte("first")).Marshal(),
		NewResponse(400, "Bad Request", []byte("second")).Marshal()...)
	return [][]byte{
		full,
		short[:len(short)-3],
		pipelined,
		[]byte("HTTP/1.1 200 OK\r\nServer: x\r\n\r\nconnection-delimited body"),
		[]byte("HTTP/1.1 200 OK\r\ncontent-length:  3 \r\n\r\nabcdef"),
		[]byte("HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nno colon here\r\n\r\n"),
		[]byte("\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 4"),
		append(append([]byte(nil), pipelined...), short[:10]...),
		append(append([]byte(nil), short...), "junk\r\n\r\n"...),
	}
}

// splitParseResponse is the string-splitting parser ParseResponse used
// before framing moved into frameResponse. It is the reference the framing
// must agree with byte for byte.
func splitParseResponse(stream []byte) (*Response, []byte, error) {
	idx := bytes.Index(stream, []byte(CRLF+CRLF))
	if idx < 0 {
		return nil, stream, ErrIncomplete
	}
	head := string(stream[:idx])
	rest := stream[idx+4:]
	lines := strings.Split(head, CRLF)
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, rest, fmt.Errorf("httpwire: malformed status line %q", lines[0])
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, rest, fmt.Errorf("httpwire: bad status code in %q", lines[0])
	}
	resp := &Response{Proto: parts[0], StatusCode: code}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	for _, l := range lines[1:] {
		colon := strings.IndexByte(l, ':')
		if colon <= 0 {
			return nil, rest, fmt.Errorf("httpwire: malformed response header %q", l)
		}
		resp.Headers = append(resp.Headers, Header{Name: l[:colon], Raw: l[colon+1:]})
	}
	if cl, ok := resp.HeaderValue("Content-Length"); ok {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, rest, fmt.Errorf("httpwire: bad Content-Length %q", cl)
		}
		if len(rest) < n {
			return nil, stream, ErrIncomplete
		}
		resp.Body = append([]byte(nil), rest[:n]...)
		return resp, rest[n:], nil
	}
	resp.Body = append([]byte(nil), rest...)
	return resp, nil, nil
}

// FuzzResponseLen checks that ResponseLen frames exactly what ParseResponse
// parses, that ParseResponse still behaves as the splitting parser did
// (same success, same ErrIncomplete, same consumed length, same message),
// and that ParseAll returns what repeated ParseResponse calls return,
// each response framed by ResponseLen.
func FuzzResponseLen(f *testing.F) {
	for _, v := range responseVectors() {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		n, lerr := ResponseLen(stream)
		resp, rest, perr := ParseResponse(stream)
		if (lerr == nil) != (perr == nil) || (lerr == ErrIncomplete) != (perr == ErrIncomplete) {
			t.Fatalf("ResponseLen err %v, ParseResponse err %v", lerr, perr)
		}
		if perr == nil && n != len(stream)-len(rest) {
			t.Fatalf("ResponseLen = %d, ParseResponse consumed %d", n, len(stream)-len(rest))
		}

		wantResp, wantRest, wantErr := splitParseResponse(stream)
		if (perr == nil) != (wantErr == nil) || (perr != nil && perr.Error() != wantErr.Error()) {
			t.Fatalf("ParseResponse err %v, splitting parser err %v", perr, wantErr)
		}
		if !reflect.DeepEqual(resp, wantResp) || !bytes.Equal(rest, wantRest) || (rest == nil) != (wantRest == nil) {
			t.Fatalf("ParseResponse = %+v rest %q, splitting parser = %+v rest %q", resp, rest, wantResp, wantRest)
		}

		if lerr == nil {
			if a := testing.AllocsPerRun(1, func() { _, _ = ResponseLen(stream) }); a != 0 {
				t.Fatalf("ResponseLen allocated %v times on success", a)
			}
		}

		var want []*Response
		for s := stream; len(s) > 0; {
			r, next, err := ParseResponse(s)
			if err != nil {
				break
			}
			if n, err := ResponseLen(s); err != nil || n != len(s)-len(next) {
				t.Fatalf("ResponseLen = %d, %v inside ParseAll's walk; ParseResponse consumed %d", n, err, len(s)-len(next))
			}
			want = append(want, r)
			s = next
		}
		if got := ParseAll(stream); !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseAll = %d responses %+v, repeated ParseResponse = %d %+v", len(got), got, len(want), want)
		}
	})
}

// A scan's keep-alive loop frames the server's 404 after every event.
func TestResponseLenZeroAlloc(t *testing.T) {
	b := NewResponse(404, "Not Found", []byte("<html><body>No such site here</body></html>")).
		AddHeader("Content-Type", "text/html").
		AddHeader("Server", "nginx/1.14.2").
		Marshal()
	if n, err := ResponseLen(b); err != nil || n != len(b) {
		t.Fatalf("ResponseLen = %d, %v; want %d", n, err, len(b))
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = ResponseLen(b) }); a != 0 {
		t.Fatalf("ResponseLen allocates %v times per call", a)
	}
}
