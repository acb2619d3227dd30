// Package quel implements a small QUEL-flavored query language for the
// engine — the INGRES lineage the paper's database procedures come from —
// with a recursive-descent parser and a rule-based planner that compiles
// statements onto the query package's plan nodes.
//
// Supported statements (keywords are case-insensitive):
//
//	create emp (tid, age, dept) cluster on age
//	create dept (dname, floor) hash on dname
//	append to emp (tid = 1, age = 30, dept = 2)
//	retrieve (emp.all) where emp.age >= 30 and emp.age < 40
//	retrieve (emp.tid, dept.floor) where emp.dept = dept.dname and dept.floor = 1
//	retrieve (emp.dept, count(emp.tid), sum(emp.salary)) sort by emp.dept
//	delete from emp where emp.tid = 3
//	replace emp (salary = 99000) where emp.dept = 10
//	define procedure senior as retrieve (emp.all) where emp.age >= 60
//	define procedure report as { retrieve (emp.all) retrieve (dept.all) }
//	execute senior
//	explain retrieve (emp.all) where emp.age = 30
//	explain senior
//
// Attribute values are int64s, as everywhere in this engine.
package quel

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokIdent tokenKind = iota
	tokNumber
	tokSymbol // ( ) , . = < > <= >= !=
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	num  int64
	pos  int
}

// lex splits one statement into tokens.
func lex(input string) ([]token, error) {
	// Statements average more than three bytes a token, so one
	// allocation usually holds them all.
	toks := make([]token, 0, len(input)/3+2)
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '=' || c == '{' || c == '}':
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		case c == '<' || c == '>' || c == '!':
			text := string(c)
			if i+1 < len(input) && input[i+1] == '=' {
				text += "="
				i++
			} else if c == '!' {
				return nil, fmt.Errorf("quel: stray '!' at %d (did you mean '!='?)", i)
			}
			toks = append(toks, token{kind: tokSymbol, text: text, pos: i})
			i++
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(input) && input[j] >= '0' && input[j] <= '9' {
				j++
			}
			n, err := strconv.ParseInt(input[i:j], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("quel: bad number %q at %d", input[i:j], i)
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], num: n, pos: i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i + 1
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: strings.ToLower(input[i:j]), pos: i})
			i = j
		default:
			return nil, fmt.Errorf("quel: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}
