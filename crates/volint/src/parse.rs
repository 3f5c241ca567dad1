//! Function-body parsing: the layer between the token stream and the
//! call graph.
//!
//! [`scan`](crate::scan) recovers *item* structure (impls, traits,
//! struct fields); this module recovers *body* structure for each
//! function: every call site (including macro invocations), every loop
//! with its extent and any statically knowable trip count, slice-index
//! expressions, field accesses, `merctrace` span regions, the rows of
//! the transition tables, and the `volint::` reachability/budget
//! markers that live in comments:
//!
//! ```text
//! // volint::root(SWITCH, RENDEZVOUS)  — above a fn: reachability root
//! // volint::bound(64)                 — on/above a loop: worst-case trips
//! // volint::cost(8192)                — cycles statically charged here
//! // volint::guarded_by(rendezvous)    — on/above a struct field
//! // volint::prune(SWITCH)             — cut call edges on this line
//! ```
//!
//! Like the scanner, the parse is deliberately tolerant: unknown
//! constructs fall through as plain blocks and malformed input can
//! never panic, only produce fewer facts.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct BodyCall {
    /// Called name (function, method, or macro identifier).
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Identifier before the `.` or `::` qualifier, if any.
    pub qualifier: Option<String>,
    /// True for `recv.name(..)` method-call syntax.
    pub via_dot: bool,
    /// True for `name!(..)` macro invocations.
    pub is_macro: bool,
}

/// A loop inside a function body.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// 1-based line of the `for`/`while`/`loop` keyword.
    pub line: usize,
    /// 1-based line of the loop body's closing brace.
    pub end_line: usize,
    /// Trip-count bound from a `// volint::bound(N)` marker.
    pub marker_bound: Option<u64>,
    /// Trip count visible in the source (`0..64`, `.take(8)`).
    pub static_bound: Option<u64>,
    /// `lo..CONST` upper bound awaiting workspace const resolution.
    pub static_end_const: Option<String>,
}

impl LoopInfo {
    /// The worst-case trip count, resolving `lo..CONST` ranges against
    /// the workspace-wide `consts` table.  `None` means unbounded.
    pub fn resolved_bound(&self, consts: &BTreeMap<String, u64>) -> Option<u64> {
        self.marker_bound
            .or(self.static_bound)
            .or_else(|| {
                self.static_end_const
                    .as_ref()
                    .and_then(|c| consts.get(c).copied())
            })
    }
}

/// A field access (`recv.field`, not followed by a call's `(`).
#[derive(Debug, Clone)]
pub struct FieldAccess {
    /// Accessed field name.
    pub name: String,
    /// Receiver identifier (`self` in `self.rv_round`).
    pub qualifier: Option<String>,
    /// 1-based line.
    pub line: usize,
}

/// A `merctrace` span region (`span_begin!`..`span_end!` with a string
/// probe name) inside one function.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Probe name (`"switch.transfer.flip_tables"`).
    pub name: String,
    /// 1-based line of the `span_begin!`.
    pub start_line: usize,
    /// 1-based line of the matching `span_end!`.
    pub end_line: usize,
}

/// One row of a transition table, `Phase::new("probe", T::run, T::undo)`:
/// the only place the source ties a probe to the fns the switch driver
/// reaches through pointers.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Probe name (`"switch.transfer.flip_tables"`).
    pub name: String,
    /// The fns the row names, as `(type qualifier, fn name)`.
    pub fns: Vec<(Option<String>, String)>,
}

/// One function definition with its body-level facts.
#[derive(Debug, Clone, Default)]
pub struct FnBody {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` (or `trait`) type, if the fn is a method.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// Inside `#[cfg(test)]` / `#[test]` scope.
    pub in_test: bool,
    /// Root kinds from a `// volint::root(..)` marker (`SWITCH`, ...).
    pub root_kinds: Vec<String>,
    /// Every call in the body, in source order.
    pub calls: Vec<BodyCall>,
    /// Every loop in the body.
    pub loops: Vec<LoopInfo>,
    /// Lines with a slice/array index expression (`x[i]`).
    pub index_sites: Vec<usize>,
    /// Every field access in the body.
    pub field_accesses: Vec<FieldAccess>,
    /// `merctrace` span regions opened and closed in this body.
    pub phases: Vec<PhaseSpan>,
}

/// Body-level facts for one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Logical path (workspace-relative, `/`-separated).
    pub name: String,
    /// All function bodies.
    pub fns: Vec<FnBody>,
    /// Transition-table rows built outside test scope and test trees.
    pub rows: Vec<PhaseRow>,
    /// Numeric `const NAME = N` definitions (for loop-bound resolution).
    pub consts: BTreeMap<String, u64>,
    /// `// volint::cost(N)` markers: (line, cycles).
    pub costs: Vec<(usize, u64)>,
    /// `// volint::guarded_by(NAME)` markers: (line, guard name).
    pub guards: Vec<(usize, String)>,
    /// `// volint::prune(KIND, ..)` markers: (line, root kinds).
    pub prunes: Vec<(usize, Vec<String>)>,
}

impl ParsedFile {
    /// The function whose body covers `line`, if any.
    pub fn fn_at(&self, line: usize) -> Option<&FnBody> {
        self.fns
            .iter()
            .find(|f| f.line <= line && line <= f.end_line)
    }

    /// Is the call edge at `line` pruned for root kind `kind` (marker
    /// on the same line or the line directly above)?
    pub fn is_pruned(&self, kind: &str, line: usize) -> bool {
        self.prunes.iter().any(|(pl, kinds)| {
            (*pl == line || *pl + 1 == line)
                && kinds.iter().any(|k| k == kind || k == "*")
        })
    }
}

/// All `volint::` markers found in a file's comments.
#[derive(Debug, Default)]
struct Markers {
    roots: Vec<(usize, Vec<String>)>,
    bounds: Vec<(usize, u64)>,
    costs: Vec<(usize, u64)>,
    guards: Vec<(usize, String)>,
    prunes: Vec<(usize, Vec<String>)>,
}

/// Parse the numeric value of a Rust literal (`16_384`, `0x40`,
/// `256usize`); `None` for anything else.
pub fn num_value(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x") {
        (h.to_string(), 16)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b.to_string(), 2)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o.to_string(), 8)
    } else {
        (t, 10)
    };
    // Strip a type suffix (`usize`, `u64`): keep the leading digits.
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// The `volint::...` text of a genuine marker comment on `line`.
///
/// Markers must live in a plain `// volint::` comment: doc comments
/// quoting marker syntax (`/// \`// volint::bound(N)\``, `//! // …`)
/// and string literals containing the needle must not register —
/// volint runs over its own sources.
pub(crate) fn marker_comment(line: &str) -> Option<&str> {
    let pos = line.find("// volint::")?;
    let prefix = &line[..pos];
    if prefix.trim_start().starts_with("//") {
        return None; // doc comment or nested comment quoting a marker
    }
    if prefix.matches('"').count() % 2 == 1 {
        return None; // inside a string literal
    }
    Some(&line[pos + 3..])
}

/// Extract the comma-separated argument list of `volint::<kind>(...)`
/// on `line`, if present as a real marker comment.
fn marker_args(line: &str, kind: &str) -> Option<Vec<String>> {
    let text = marker_comment(line)?;
    let pat = format!("volint::{kind}(");
    let rest = text.strip_prefix(pat.as_str())?;
    let end = rest.find(')')?;
    Some(
        rest[..end]
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect(),
    )
}

fn collect_markers(src: &str) -> Markers {
    let mut m = Markers::default();
    for (i, line) in src.lines().enumerate() {
        let ln = i + 1;
        if let Some(kinds) = marker_args(line, "root") {
            if !kinds.is_empty() {
                m.roots.push((ln, kinds));
            }
        }
        if let Some(args) = marker_args(line, "bound") {
            if let Some(n) = args.first().and_then(|a| num_value(a)) {
                m.bounds.push((ln, n));
            }
        }
        if let Some(args) = marker_args(line, "cost") {
            if let Some(n) = args.first().and_then(|a| num_value(a)) {
                m.costs.push((ln, n));
            }
        }
        if let Some(args) = marker_args(line, "guarded_by") {
            if let Some(g) = args.first() {
                m.guards.push((ln, g.clone()));
            }
        }
        if let Some(kinds) = marker_args(line, "prune") {
            if !kinds.is_empty() {
                m.prunes.push((ln, kinds));
            }
        }
    }
    m
}

/// Parse `src` into body-level facts under the logical path `name`.
pub fn parse_file(name: &str, src: &str) -> ParsedFile {
    let markers = collect_markers(src);
    let toks = lex(src);
    let mut out = ParsedFile {
        name: name.to_string(),
        ..ParsedFile::default()
    };
    Walker {
        toks: &toks,
        out: &mut out,
        stack: Vec::new(),
        depth: 0,
        pending: None,
        pending_loop: None,
        attrs: Vec::new(),
        span_stack: Vec::new(),
        impl_types: Vec::new(),
    }
    .run();

    // Attach markers by line proximity.
    for (ml, kinds) in &markers.roots {
        // The nearest following fn (doc comments / attributes may sit
        // between the marker and the `fn` keyword).
        if let Some(f) = out
            .fns
            .iter_mut()
            .filter(|f| f.line > *ml && f.line - *ml <= 8)
            .min_by_key(|f| f.line)
        {
            for k in kinds {
                if !f.root_kinds.contains(k) {
                    f.root_kinds.push(k.clone());
                }
            }
        }
    }
    for (ml, n) in &markers.bounds {
        for f in &mut out.fns {
            for l in &mut f.loops {
                if l.line == *ml || l.line == *ml + 1 {
                    l.marker_bound = Some(*n);
                }
            }
        }
    }
    out.costs = markers.costs;
    out.guards = markers.guards;
    out.prunes = markers.prunes;
    out
}

#[derive(Debug)]
enum ScopeKind {
    Plain,
    /// An `impl`/`trait` body; its type name sits on `impl_types`.
    Impl,
    Fn { idx: usize },
    Loop { fn_idx: usize, loop_idx: usize },
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    test: bool,
}

enum Pending {
    Block { test: bool },
    Fn { idx: usize, test: bool },
    Impl { type_name: String, test: bool },
}

/// Keywords that can directly precede a `[` without forming an index
/// expression (slice patterns, mostly).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "mut", "ref", "return", "break", "if", "while", "match", "else", "move", "as",
    "box", "const", "static",
];

struct Walker<'a> {
    toks: &'a [Token],
    out: &'a mut ParsedFile,
    stack: Vec<Scope>,
    depth: usize,
    pending: Option<Pending>,
    /// A loop header was parsed; its body `{` is at this token index.
    pending_loop: Option<(usize, usize, usize)>,
    attrs: Vec<String>,
    /// Open `span_begin!` probes of the current fn: (name, line).
    span_stack: Vec<(String, usize)>,
    /// Nested `impl`/`trait` type names (innermost last).
    impl_types: Vec<String>,
}

impl<'a> Walker<'a> {
    fn run(mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            i = self.step(i);
        }
    }

    fn inherited_test(&self) -> bool {
        self.stack.iter().any(|s| s.test)
    }

    fn attrs_mark_test(&self) -> bool {
        self.attrs
            .iter()
            .any(|a| a == "test" || (a.starts_with("cfg") && a.contains("test")))
    }

    fn current_fn(&self) -> Option<usize> {
        self.stack.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn { idx } => Some(idx),
            _ => None,
        })
    }

    fn step(&mut self, i: usize) -> usize {
        let t = &self.toks[i];
        match &t.kind {
            TokenKind::Punct('#') => self.scan_attr(i),
            TokenKind::Punct('{') => {
                self.depth += 1;
                let inherited = self.inherited_test();
                let scope = if let Some((fn_idx, loop_idx, body)) = self.pending_loop {
                    if body == i {
                        self.pending_loop = None;
                        Scope {
                            kind: ScopeKind::Loop { fn_idx, loop_idx },
                            test: inherited,
                        }
                    } else {
                        Scope {
                            kind: ScopeKind::Plain,
                            test: inherited,
                        }
                    }
                } else {
                    match self.pending.take() {
                        Some(Pending::Fn { idx, test }) => Scope {
                            kind: ScopeKind::Fn { idx },
                            test: test || inherited,
                        },
                        Some(Pending::Impl { type_name, test }) => {
                            self.impl_types.push(type_name);
                            Scope {
                                kind: ScopeKind::Impl,
                                test: test || inherited,
                            }
                        }
                        Some(Pending::Block { test }) => Scope {
                            kind: ScopeKind::Plain,
                            test: test || inherited,
                        },
                        None => Scope {
                            kind: ScopeKind::Plain,
                            test: inherited,
                        },
                    }
                };
                self.stack.push(scope);
                i + 1
            }
            TokenKind::Punct('}') => {
                let line = t.line;
                if let Some(s) = self.stack.pop() {
                    match s.kind {
                        ScopeKind::Fn { idx } => {
                            self.out.fns[idx].end_line = line;
                            self.span_stack.clear();
                        }
                        ScopeKind::Loop { fn_idx, loop_idx } => {
                            self.out.fns[fn_idx].loops[loop_idx].end_line = line;
                        }
                        ScopeKind::Impl => {
                            self.impl_types.pop();
                        }
                        ScopeKind::Plain => {}
                    }
                }
                self.depth = self.depth.saturating_sub(1);
                i + 1
            }
            TokenKind::Punct(';') => {
                self.attrs.clear();
                i + 1
            }
            TokenKind::Punct('[') => {
                self.scan_index_site(i);
                i + 1
            }
            TokenKind::Ident(id) => match id.as_str() {
                "fn" => self.scan_fn(i),
                "impl" | "trait" => self.scan_impl(i),
                "mod" => self.scan_mod(i),
                "for" => self.scan_for(i),
                "while" => self.scan_while(i),
                "loop" => self.scan_loop(i),
                "const" => self.scan_const(i),
                "Phase" => {
                    self.scan_row(i);
                    self.scan_expr_ident(i)
                }
                "use" => {
                    self.attrs.clear();
                    let mut j = i + 1;
                    while j < self.toks.len() && !self.toks[j].is_punct(';') {
                        j += 1;
                    }
                    j + 1
                }
                _ => self.scan_expr_ident(i),
            },
            _ => i + 1,
        }
    }

    /// `#[...]` / `#![...]`: collect outer attribute text.
    fn scan_attr(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        let inner = self.toks.get(j).is_some_and(|t| t.is_punct('!'));
        if inner {
            j += 1;
        }
        if !self.toks.get(j).is_some_and(|t| t.is_punct('[')) {
            return i + 1;
        }
        let mut bdepth = 0usize;
        let mut text = String::new();
        while j < self.toks.len() {
            match &self.toks[j].kind {
                TokenKind::Punct('[') => bdepth += 1,
                TokenKind::Punct(']') => {
                    bdepth -= 1;
                    if bdepth == 0 {
                        j += 1;
                        break;
                    }
                }
                TokenKind::Ident(s) => {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    text.push_str(s);
                }
                _ => {}
            }
            j += 1;
        }
        if !inner {
            self.attrs.push(text);
        }
        j
    }

    /// `fn name(..) {` — jump the header, open a [`FnBody`].
    fn scan_fn(&mut self, i: usize) -> usize {
        let test = self.attrs_mark_test() || self.inherited_test();
        self.attrs.clear();
        let name = match self.toks.get(i + 1).and_then(|t| t.ident()) {
            Some(n) => n.to_string(),
            None => return i + 1,
        };
        let line = self.toks[i].line;
        let mut j = i + 2;
        let mut paren = 0usize;
        let mut bracket = 0usize;
        let mut body = None;
        while j < self.toks.len() {
            match &self.toks[j].kind {
                TokenKind::Punct('(') => paren += 1,
                TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                TokenKind::Punct('[') => bracket += 1,
                TokenKind::Punct(']') => bracket = bracket.saturating_sub(1),
                TokenKind::Punct('{') if paren == 0 && bracket == 0 => {
                    body = Some(j);
                    break;
                }
                TokenKind::Punct(';') if paren == 0 && bracket == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(b) = body else { return j + 1 };
        let impl_type = self.impl_type_here();
        let idx = self.out.fns.len();
        self.out.fns.push(FnBody {
            name,
            impl_type,
            line,
            end_line: line,
            in_test: test,
            ..FnBody::default()
        });
        self.pending = Some(Pending::Fn { idx, test });
        b
    }

    /// The innermost `impl`/`trait` type carried on the scope stack.
    fn impl_type_here(&self) -> Option<String> {
        self.impl_types.last().filter(|s| !s.is_empty()).cloned()
    }

    /// `impl [Trait for] Type {` / `trait Name {` — jump the header,
    /// remember the implementing type for method attribution.
    fn scan_impl(&mut self, i: usize) -> usize {
        let test = self.attrs_mark_test();
        self.attrs.clear();
        let is_trait = self.toks[i].is_ident("trait");
        let mut j = i + 1;
        let mut angle = 0usize;
        let mut names: Vec<String> = Vec::new();
        let mut in_where = false;
        while j < self.toks.len() {
            match &self.toks[j].kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => {
                    let arrow = j > 0 && self.toks[j - 1].is_punct('-');
                    if !arrow {
                        angle = angle.saturating_sub(1);
                    }
                }
                TokenKind::Punct('{') => break,
                TokenKind::Punct(';') if angle == 0 => return j + 1,
                TokenKind::Ident(s) if angle == 0 => match s.as_str() {
                    "where" => in_where = true,
                    "for" | "dyn" | "mut" | "unsafe" | "const" => {}
                    _ if !in_where => names.push(s.clone()),
                    _ => {}
                },
                _ => {}
            }
            j += 1;
        }
        if j >= self.toks.len() {
            return j;
        }
        let type_name = if is_trait {
            names.first().cloned()
        } else {
            names.last().cloned()
        };
        self.pending = Some(Pending::Impl {
            type_name: type_name.unwrap_or_default(),
            test,
        });
        j
    }

    fn scan_mod(&mut self, i: usize) -> usize {
        let test = self.attrs_mark_test();
        self.attrs.clear();
        let mut j = i + 1;
        while j < self.toks.len() && !self.toks[j].is_punct('{') && !self.toks[j].is_punct(';') {
            j += 1;
        }
        if self.toks.get(j).is_some_and(|t| t.is_punct('{')) {
            self.pending = Some(Pending::Block { test });
            j
        } else {
            j + 1
        }
    }

    /// `for <pat> in <iterable> {` inside a fn body.
    fn scan_for(&mut self, i: usize) -> usize {
        let Some(fn_idx) = self.current_fn() else {
            return i + 1;
        };
        // `for<'a>` higher-ranked bound, not a loop.
        if self.toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            return i + 1;
        }
        // Find `in` at balanced depth, then the body `{`.
        let mut j = i + 1;
        let (mut paren, mut bracket) = (0usize, 0usize);
        let mut found_in = None;
        while j < self.toks.len() {
            match &self.toks[j].kind {
                TokenKind::Punct('(') => paren += 1,
                TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                TokenKind::Punct('[') => bracket += 1,
                TokenKind::Punct(']') => bracket = bracket.saturating_sub(1),
                TokenKind::Punct('{') | TokenKind::Punct(';') if paren == 0 && bracket == 0 => {
                    break
                }
                TokenKind::Ident(s) if s == "in" && paren == 0 && bracket == 0 => {
                    found_in = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(in_idx) = found_in else { return i + 1 };
        let (mut paren, mut bracket) = (0usize, 0usize);
        let mut k = in_idx + 1;
        let mut body = None;
        while k < self.toks.len() {
            match &self.toks[k].kind {
                TokenKind::Punct('(') => paren += 1,
                TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                TokenKind::Punct('[') => bracket += 1,
                TokenKind::Punct(']') => bracket = bracket.saturating_sub(1),
                TokenKind::Punct('{') if paren == 0 && bracket == 0 => {
                    body = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(body) = body else { return i + 1 };
        let (static_bound, static_end_const) = static_trip_count(&self.toks[in_idx + 1..body]);
        let loop_idx = self.out.fns[fn_idx].loops.len();
        self.out.fns[fn_idx].loops.push(LoopInfo {
            line: self.toks[i].line,
            end_line: self.toks[i].line,
            marker_bound: None,
            static_bound,
            static_end_const,
        });
        self.pending_loop = Some((fn_idx, loop_idx, body));
        i + 1 // keep scanning the header: the iterable may contain calls
    }

    /// `while <cond> {` inside a fn body.
    fn scan_while(&mut self, i: usize) -> usize {
        let Some(fn_idx) = self.current_fn() else {
            return i + 1;
        };
        let (mut paren, mut bracket) = (0usize, 0usize);
        let mut j = i + 1;
        let mut body = None;
        while j < self.toks.len() {
            match &self.toks[j].kind {
                TokenKind::Punct('(') => paren += 1,
                TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                TokenKind::Punct('[') => bracket += 1,
                TokenKind::Punct(']') => bracket = bracket.saturating_sub(1),
                TokenKind::Punct('{') if paren == 0 && bracket == 0 => {
                    body = Some(j);
                    break;
                }
                TokenKind::Punct(';') if paren == 0 && bracket == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(body) = body else { return i + 1 };
        let loop_idx = self.out.fns[fn_idx].loops.len();
        self.out.fns[fn_idx].loops.push(LoopInfo {
            line: self.toks[i].line,
            end_line: self.toks[i].line,
            marker_bound: None,
            static_bound: None,
            static_end_const: None,
        });
        self.pending_loop = Some((fn_idx, loop_idx, body));
        i + 1
    }

    /// `loop {` inside a fn body.
    fn scan_loop(&mut self, i: usize) -> usize {
        let Some(fn_idx) = self.current_fn() else {
            return i + 1;
        };
        if !self.toks.get(i + 1).is_some_and(|t| t.is_punct('{')) {
            return i + 1;
        }
        let loop_idx = self.out.fns[fn_idx].loops.len();
        self.out.fns[fn_idx].loops.push(LoopInfo {
            line: self.toks[i].line,
            end_line: self.toks[i].line,
            marker_bound: None,
            static_bound: None,
            static_end_const: None,
        });
        self.pending_loop = Some((fn_idx, loop_idx, i + 1));
        i + 1
    }

    /// `const NAME: Ty = <num>;` — feed the loop-bound const table.
    fn scan_const(&mut self, i: usize) -> usize {
        self.attrs.clear();
        let Some(name) = self.toks.get(i + 1).and_then(|t| t.ident()) else {
            return i + 1;
        };
        if name == "fn" {
            return i + 1; // `const fn`
        }
        let name = name.to_string();
        let mut j = i + 2;
        while j < self.toks.len() {
            let t = &self.toks[j];
            if t.is_punct(';') || t.is_punct('{') {
                return i + 1;
            }
            if t.is_punct('=') {
                break;
            }
            j += 1;
        }
        if let Some(TokenKind::Num(n)) = self.toks.get(j + 1).map(|t| &t.kind) {
            if self.toks.get(j + 2).is_some_and(|t| t.is_punct(';')) {
                if let Some(v) = num_value(n) {
                    self.out.consts.insert(name, v);
                }
            }
        }
        i + 1
    }

    /// `Phase::new("probe", Type::run, Type::undo)` — record the row.
    fn scan_row(&mut self, i: usize) {
        let is = |k: usize, c: char| self.toks.get(k).is_some_and(|t| t.is_punct(c));
        let ctor = is(i + 1, ':')
            && is(i + 2, ':')
            && self.toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
            && is(i + 4, '(');
        let name = self.toks.get(i + 5).and_then(|t| t.str_lit());
        let in_test = self.inherited_test() || crate::in_test_tree(&self.out.name);
        let Some(name) = name.filter(|_| ctor && !in_test) else {
            return;
        };
        // Every remaining argument is a path; its last segment (before
        // any `::<..>`) is the fn, the segment before it the type.
        let mut fns = Vec::new();
        let mut j = i + 6;
        while let Some(t) = self.toks.get(j).filter(|t| !t.is_punct(')')) {
            let more_path = is(j + 1, ':') && !is(j + 3, '<');
            if let Some(id) = t.ident().filter(|_| !more_path && !is(j - 1, '<')) {
                let qualified = is(j - 1, ':') && is(j - 2, ':');
                let ty = self.toks[j - 3].ident().filter(|_| qualified);
                fns.push((ty.map(String::from), id.to_string()));
            }
            j += 1;
        }
        self.out.rows.push(PhaseRow {
            name: name.to_string(),
            fns,
        });
    }

    /// `expr[..]` index site: a `[` directly after a value expression.
    fn scan_index_site(&mut self, i: usize) {
        let Some(fn_idx) = self.current_fn() else {
            return;
        };
        let Some(prev) = i.checked_sub(1).map(|p| &self.toks[p]) else {
            return;
        };
        let is_value_end = match &prev.kind {
            TokenKind::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
            TokenKind::Punct(')') | TokenKind::Punct(']') => true,
            _ => false,
        };
        if is_value_end {
            self.out.fns[fn_idx].index_sites.push(self.toks[i].line);
        }
    }

    /// Identifier in expression position: macro call, call, or field
    /// access.
    fn scan_expr_ident(&mut self, i: usize) -> usize {
        let Some(fn_idx) = self.current_fn() else {
            return i + 1;
        };
        let id = self.toks[i].ident().unwrap().to_string();
        if matches!(
            id.as_str(),
            "if" | "else" | "match" | "return" | "break" | "continue" | "let" | "mut" | "ref"
                | "move" | "as" | "in" | "pub" | "where" | "unsafe" | "dyn" | "static"
        ) {
            return i + 1;
        }
        let line = self.toks[i].line;
        let next = self.toks.get(i + 1);

        // Macro invocation: `name!(..)` / `name![..]` / `name!{..}`.
        if next.is_some_and(|t| t.is_punct('!'))
            && self.toks.get(i + 2).is_some_and(|t| {
                t.is_punct('(') || t.is_punct('[') || t.is_punct('{')
            })
        {
            if id == "span_begin" || id == "span_end" {
                self.scan_span_event(fn_idx, &id, line, i + 2);
            }
            self.out.fns[fn_idx].calls.push(BodyCall {
                name: id,
                line,
                qualifier: None,
                via_dot: false,
                is_macro: true,
            });
            return i + 1;
        }

        // Plain call: `name(..)`.
        if next.is_some_and(|t| t.is_punct('(')) {
            let (qualifier, via_dot) = self.call_qualifier(i);
            self.out.fns[fn_idx].calls.push(BodyCall {
                name: id,
                line,
                qualifier,
                via_dot,
                is_macro: false,
            });
            return i + 1;
        }

        // Field access: `recv.name` (not `a..b`, not `recv.name(`).
        if i >= 1
            && self.toks[i - 1].is_punct('.')
            && !(i >= 2 && self.toks[i - 2].is_punct('.'))
        {
            let qualifier = if i >= 2 {
                self.toks[i - 2].ident().map(String::from)
            } else {
                None
            };
            self.out.fns[fn_idx].field_accesses.push(FieldAccess {
                name: id,
                qualifier,
                line,
            });
        }
        i + 1
    }

    /// Record a `span_begin!`/`span_end!` probe with a literal name:
    /// pair begin/end into a [`PhaseSpan`] on the enclosing fn.
    fn scan_span_event(&mut self, fn_idx: usize, which: &str, line: usize, open: usize) {
        let mut depth = 0usize;
        let mut j = open;
        let mut name = None;
        while j < self.toks.len() {
            match &self.toks[j].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                    depth += 1
                }
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Str(s) if !s.is_empty() && name.is_none() => {
                    name = Some(s.clone());
                }
                _ => {}
            }
            j += 1;
        }
        let Some(name) = name else { return };
        if which == "span_begin" {
            self.span_stack.push((name, line));
        } else if let Some(pos) = self.span_stack.iter().rposition(|(n, _)| *n == name) {
            let (n, start) = self.span_stack.remove(pos);
            self.out.fns[fn_idx].phases.push(PhaseSpan {
                name: n,
                start_line: start,
                end_line: line,
            });
        }
    }

    /// The receiver/path qualifier of a call whose name is at `i`
    /// (mirrors [`crate::scan`]'s logic).
    fn call_qualifier(&self, i: usize) -> (Option<String>, bool) {
        if i >= 1 && self.toks[i - 1].is_punct('.') {
            let q = if i >= 2 {
                match &self.toks[i - 2].kind {
                    TokenKind::Ident(s) => Some(s.clone()),
                    TokenKind::Punct(')') => {
                        let mut depth = 0usize;
                        let mut k = i - 2;
                        loop {
                            match &self.toks[k].kind {
                                TokenKind::Punct(')') => depth += 1,
                                TokenKind::Punct('(') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            if k == 0 {
                                break;
                            }
                            k -= 1;
                        }
                        if k > 0 {
                            self.toks[k - 1].ident().map(String::from)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            } else {
                None
            };
            (q, true)
        } else if i >= 2 && self.toks[i - 1].is_punct(':') && self.toks[i - 2].is_punct(':') {
            let q = if i >= 3 {
                self.toks[i - 3].ident().map(String::from)
            } else {
                None
            };
            (q, false)
        } else {
            (None, false)
        }
    }
}

/// Statically visible trip count of a `for` iterable: numeric ranges
/// (`0..64`, `2..=10`), `lo..CONST` (returned for later resolution),
/// or a `.take(N)` anywhere in the chain.
fn static_trip_count(toks: &[Token]) -> (Option<u64>, Option<String>) {
    // `.take(N)` dominates whatever it wraps.
    for w in toks.windows(4) {
        if w[0].is_punct('.') && w[1].is_ident("take") && w[2].is_punct('(') {
            if let TokenKind::Num(n) = &w[3].kind {
                if let Some(v) = num_value(n) {
                    return (Some(v), None);
                }
            }
        }
    }
    // Range forms.
    let mut j = 0;
    while j + 2 < toks.len() {
        if toks[j + 1].is_punct('.') && toks[j + 2].is_punct('.') {
            let lo = match &toks[j].kind {
                TokenKind::Num(n) => num_value(n),
                _ => None,
            };
            let Some(lo) = lo else {
                j += 1;
                continue;
            };
            let mut k = j + 3;
            let mut inclusive = false;
            if toks.get(k).is_some_and(|t| t.is_punct('=')) {
                inclusive = true;
                k += 1;
            }
            match toks.get(k).map(|t| &t.kind) {
                Some(TokenKind::Num(n)) => {
                    if let Some(hi) = num_value(n) {
                        let trips = hi.saturating_sub(lo) + u64::from(inclusive);
                        return (Some(trips), None);
                    }
                }
                // `0..CONST`: resolve against the workspace table.
                Some(TokenKind::Ident(c))
                    if lo == 0
                        && !inclusive
                        && c.chars().all(|ch| {
                            ch.is_ascii_uppercase() || ch == '_' || ch.is_ascii_digit()
                        }) =>
                {
                    return (None, Some(c.clone()));
                }
                _ => {}
            }
        }
        j += 1;
    }
    (None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_bodies_carry_calls_loops_and_extents() {
        let src = r#"
            impl Mercury {
                fn attach(&self) {
                    for f in self.kernel.all_table_frames() {
                        self.flip(f);
                    }
                    // volint::bound(64)
                    for p in procs.iter() {
                        fix(p);
                    }
                    for i in 0..16 {
                        step(i);
                    }
                }
            }
        "#;
        let p = parse_file("x.rs", src);
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "attach");
        assert_eq!(f.impl_type.as_deref(), Some("Mercury"));
        assert_eq!(f.loops.len(), 3);
        assert!(f.loops[0].marker_bound.is_none());
        assert!(f.loops[0].end_line > f.loops[0].line);
        assert_eq!(f.loops[1].marker_bound, Some(64));
        assert_eq!(f.loops[2].static_bound, Some(16));
        assert!(f.calls.iter().any(|c| c.name == "all_table_frames"));
        assert!(f.calls.iter().any(|c| c.name == "flip"));
        assert!(f.end_line > f.line);
    }

    #[test]
    fn macro_calls_and_span_regions() {
        let src = r#"
            fn attach_transfer(cpu: &Cpu) {
                merctrace::span_begin!(cpu.id, "switch.transfer.flip_tables", cpu.cycles());
                flip(cpu);
                merctrace::span_end!(cpu.id, "switch.transfer.flip_tables", cpu.cycles());
                let v = vec![1, 2];
                let s = format!("{v:?}");
            }
        "#;
        let p = parse_file("x.rs", src);
        let f = &p.fns[0];
        assert!(f.calls.iter().any(|c| c.name == "vec" && c.is_macro));
        assert!(f.calls.iter().any(|c| c.name == "format" && c.is_macro));
        assert_eq!(f.phases.len(), 1);
        assert_eq!(f.phases[0].name, "switch.transfer.flip_tables");
        assert!(f.phases[0].end_line > f.phases[0].start_line);
        // The dynamic-name span form is ignored, not mispaired.
        let src2 = "fn f(cpu: &Cpu) { merctrace::span_begin!(cpu.id, _span, cpu.cycles()); }";
        assert!(parse_file("y.rs", src2).fns[0].phases.is_empty());
    }

    #[test]
    fn index_sites_and_field_accesses() {
        let src = r#"
            fn f(&self, xs: &[u8]) -> u8 {
                let [a, b] = split(xs);
                let _ = *self.rv_round.lock();
                self.stats.deferrals.incr();
                xs[3] + a + b
            }
        "#;
        let p = parse_file("x.rs", src);
        let f = &p.fns[0];
        assert_eq!(f.index_sites.len(), 1, "slice pattern must not count");
        let rv = f.field_accesses.iter().find(|a| a.name == "rv_round");
        assert_eq!(rv.unwrap().qualifier.as_deref(), Some("self"));
        assert!(f.field_accesses.iter().any(|a| a.name == "stats"));
        // `lock()` and `incr()` are calls, not field accesses.
        assert!(!f.field_accesses.iter().any(|a| a.name == "lock"));
    }

    #[test]
    fn root_markers_attach_to_following_fn() {
        let src = r#"
            // volint::root(SWITCH, RENDEZVOUS)
            fn handle_switch(&self) {}

            fn unrooted(&self) {}
        "#;
        let p = parse_file("x.rs", src);
        assert_eq!(p.fns[0].root_kinds, vec!["SWITCH", "RENDEZVOUS"]);
        assert!(p.fns[1].root_kinds.is_empty());
    }

    #[test]
    fn consts_costs_guards_prunes() {
        let src = "pub const ENTRIES_PER_TABLE: usize = 512;\n\
                   struct S {\n    // volint::guarded_by(rendezvous)\n    job: Mutex<u8>,\n}\n\
                   fn f() {\n    // volint::cost(4_096)\n    tick();\n    // volint::prune(SWITCH)\n    helper();\n    for i in 0..ENTRIES_PER_TABLE { walk(i); }\n}\n";
        let p = parse_file("x.rs", src);
        assert_eq!(p.consts.get("ENTRIES_PER_TABLE"), Some(&512));
        assert_eq!(p.costs, vec![(7, 4096)]);
        assert_eq!(p.guards, vec![(3, "rendezvous".to_string())]);
        assert!(p.is_pruned("SWITCH", 10));
        assert!(!p.is_pruned("RENDEZVOUS", 10));
        let lp = &p.fns[0].loops[0];
        assert_eq!(lp.static_end_const.as_deref(), Some("ENTRIES_PER_TABLE"));
        assert_eq!(lp.resolved_bound(&p.consts), Some(512));
    }

    #[test]
    fn while_and_bare_loops_are_unbounded_without_marker() {
        let src = r#"
            fn f() {
                while pending() {
                    step();
                }
                // volint::bound(1000)
                loop {
                    if done() { break; }
                }
            }
        "#;
        let p = parse_file("x.rs", src);
        let f = &p.fns[0];
        assert_eq!(f.loops.len(), 2);
        assert!(f.loops[0].resolved_bound(&BTreeMap::new()).is_none());
        assert_eq!(f.loops[1].marker_bound, Some(1000));
    }

    #[test]
    fn impl_for_is_not_a_loop_and_test_scope_propagates() {
        let src = r#"
            impl PvOps for BareOps {
                fn mode(&self) -> ExecMode { ExecMode::Native }
            }
            #[cfg(test)]
            mod tests {
                fn helper() { for i in 0..4 { poke(i); } }
            }
        "#;
        let p = parse_file("x.rs", src);
        let mode = p.fns.iter().find(|f| f.name == "mode").unwrap();
        assert_eq!(mode.impl_type.as_deref(), Some("BareOps"));
        assert!(mode.loops.is_empty());
        let helper = p.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
        assert_eq!(helper.loops.len(), 1);
    }

    #[test]
    fn num_values() {
        assert_eq!(num_value("16_384"), Some(16384));
        assert_eq!(num_value("0x40"), Some(64));
        assert_eq!(num_value("256usize"), Some(256));
        assert_eq!(num_value("abc"), None);
    }
}
