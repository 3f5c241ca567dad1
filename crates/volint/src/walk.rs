//! The source walker: one pass over one token stream per file.
//!
//! [`walk_file`] lexes a source once and recovers everything the rules,
//! the call graph and the cycle budget read: items (`impl`/`trait`
//! blocks, struct fields, numeric consts), every function body (extent,
//! identifier set, loops with any statically knowable trip count,
//! slice-index expressions, `merctrace` span regions),
//! every call site (receiver, argument identifiers, macro
//! invocations), `let` bindings, `Ordering::Relaxed` uses, the rows of
//! the transition tables, `#[cfg(test)]` scoping, the
//! [`FORBIDDEN`](crate::rules::FORBIDDEN) sequences, the
//! `#[doc(alias = "volint-privileged")]` flag on fns, and the
//! `volint::` markers that live in comments:
//!
//! ```text
//! // volint::allow(RULE, ..): why  — on/above a line: waive RULE there
//! // volint::root(SWITCH)           — above a fn: a switch-path root
//! // volint::bound(64)              — on/above a loop: worst-case trips
//! // volint::cost(8192)             — cycles statically charged here
//! ```
//!
//! A marker of any other kind is kept as unknown and reported
//! (STALE-WAIVER), so a misspelt waiver or a retired kind cannot pass
//! silently.
//!
//! The walk is deliberately tolerant: unknown constructs fall through
//! as plain blocks and malformed input can never panic, only produce
//! fewer facts.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// The `#[doc(alias = ...)]` value marking a privileged primitive.
pub const PRIVILEGED_ALIAS: &str = "volint-privileged";

/// A call site: `f(..)`, `recv.m(..)`, `T::f(..)` or `m!(..)`.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called name (function, method, or macro identifier).
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Identifier immediately before the `.` or `::` qualifier, if any
    /// (`cpu` in `cpu.write_cr3(..)`, `mem` in `mem::forget(..)`).
    pub qualifier: Option<String>,
    /// True for `recv.name(..)` method-call syntax.
    pub via_dot: bool,
    /// True for `name!(..)` macro invocations.
    pub is_macro: bool,
    /// Identifiers appearing anywhere in the argument list (not
    /// collected for macros).
    pub args: Vec<String>,
    /// The argument list contains an `.enter(` call.
    pub args_have_enter: bool,
    /// Index into [`FileFacts::fns`] of the enclosing function.
    pub fn_idx: Option<usize>,
    /// The call is inside `#[cfg(test)]` / `#[test]` scope.
    pub in_test: bool,
}

/// A `let` binding.
#[derive(Debug, Clone)]
pub struct LetBinding {
    /// Bound name (`"_"` for a wildcard discard).
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// The initializer contains a `.enter(` call.
    pub init_has_enter: bool,
    /// The declared type mentions `VoGuard`.
    pub type_has_voguard: bool,
    /// Index into [`FileFacts::fns`] of the enclosing function.
    pub fn_idx: Option<usize>,
    /// Inside test scope.
    pub in_test: bool,
}

/// A named-struct (or enum) field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Owning struct name.
    pub struct_name: String,
    /// Field name.
    pub field_name: String,
    /// 1-based line.
    pub line: usize,
    /// Identifiers in the field's type.
    pub type_idents: Vec<String>,
    /// Inside test scope.
    pub in_test: bool,
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
        self.marker_bound.or(self.static_bound).or_else(|| {
            self.static_end_const
                .as_ref()
                .and_then(|c| consts.get(c).copied())
        })
    }
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

/// One function definition with its body-level facts (its calls are the
/// [`FileFacts::calls`] whose `fn_idx` names it).
#[derive(Debug, Clone, Default)]
pub struct FnBody {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` (or `trait`) type, if the fn is a method.
    pub impl_type: Option<String>,
    /// Trait name if the fn sits in an `impl Trait for Type` block.
    pub impl_trait: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// Inside `#[cfg(test)]` / `#[test]` scope.
    pub in_test: bool,
    /// Carries `#[doc(alias = "volint-privileged")]`.
    pub privileged: bool,
    /// Under a `// volint::root(..)` marker: a switch-path root.
    pub root: bool,
    /// Every identifier appearing in the body.
    pub idents: BTreeSet<String>,
    /// Every loop in the body.
    pub loops: Vec<LoopInfo>,
    /// Lines with a slice/array index expression (`x[i]`).
    pub index_sites: Vec<usize>,
    /// `merctrace` span regions opened and closed in this body.
    pub phases: Vec<PhaseSpan>,
}

/// Marker payloads keyed by the 1-based line of their comment.
pub type Marked<T> = Vec<(usize, T)>;

/// Everything volint knows about one source file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Logical path (workspace-relative, `/`-separated).
    pub name: String,
    /// All function bodies.
    pub fns: Vec<FnBody>,
    /// All call sites, in source order.
    pub calls: Vec<Call>,
    /// All `let` bindings.
    pub lets: Vec<LetBinding>,
    /// All named-struct fields.
    pub fields: Vec<FieldDef>,
    /// Names of all struct/enum/union definitions.
    pub structs: Vec<String>,
    /// Lines with `Ordering::Relaxed`.
    pub relaxed: Vec<usize>,
    /// Transition-table rows built outside test scope and test trees.
    pub rows: Vec<PhaseRow>,
    /// Numeric `const NAME = N` definitions (for loop-bound resolution).
    pub consts: BTreeMap<String, u64>,
    /// `// volint::allow(RULE, ..)` waivers: (line, rule names).
    pub waivers: Marked<Vec<String>>,
    /// `// volint::cost(N)` markers: (line, cycles).
    pub costs: Marked<u64>,
    /// Markers of a kind volint does not know: (line, kind).
    pub unknown_markers: Marked<String>,
    /// [`rules::FORBIDDEN`](crate::rules::FORBIDDEN) sequences outside
    /// their allowed files: (row, sequence, line).
    pub forbidden: Vec<(&'static crate::rules::Forbidden, &'static str, usize)>,
}

/// Does a marker on line `marker` cover `line` — the same line or the
/// line directly above?
fn covers(marker: usize, line: usize) -> bool {
    marker == line || marker + 1 == line
}

impl FileFacts {
    /// Does this file define a struct or enum named `name`?
    pub fn defines_struct(&self, name: &str) -> bool {
        self.structs.iter().any(|s| s == name)
    }

    /// The calls made directly by `fns[fn_idx]`, in source order.
    pub fn calls_in(&self, fn_idx: usize) -> impl Iterator<Item = &Call> {
        self.calls.iter().filter(move |c| c.fn_idx == Some(fn_idx))
    }

    /// The line of the waiver naming `rule` (or `*`) that covers
    /// `line`, if any — used to track which waivers actually fire
    /// (stale-waiver detection).
    pub fn waiver_match(&self, rule: &str, line: usize) -> Option<usize> {
        self.waivers
            .iter()
            .find(|(wl, rules)| covers(*wl, line) && rules.iter().any(|r| r == rule || r == "*"))
            .map(|w| w.0)
    }
}

/// Parse the numeric value of a Rust literal (`16_384`, `0x40`,
/// `256usize`); `None` for anything else.
pub fn num_value(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x") {
        (h, 16)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b, 2)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o, 8)
    } else {
        (t.as_str(), 10)
    };
    // Strip a type suffix (`usize`, `u64`): keep the leading digits.
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// The value of a numeric-literal token.
fn num_tok(t: &Token) -> Option<u64> {
    match &t.kind {
        TokenKind::Num(n) => num_value(n),
        _ => None,
    }
}

/// The `volint::...` text of a genuine marker comment on `line`.
///
/// Markers must live in a plain `// volint::` comment: doc comments
/// quoting marker syntax (`/// \`// volint::bound(N)\``, `//! // …`)
/// and string literals containing the needle must not register —
/// volint runs over its own sources.
fn marker_comment(line: &str) -> Option<&str> {
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

/// Pull every `// volint::kind(args)` marker out of the raw source
/// (they live in comments, which the lexer strips).  Waivers, costs
/// and unknown kinds land on `out`; root lines and bounds are returned
/// for attachment to the fns and loops the walk finds.
fn collect_markers(src: &str, out: &mut FileFacts) -> (Vec<usize>, Marked<u64>) {
    let (mut roots, mut bounds) = (Vec::new(), Vec::new());
    for (i, line) in src.lines().enumerate() {
        let ln = i + 1;
        let Some((kind, rest)) = marker_comment(line)
            .and_then(|text| text.strip_prefix("volint::"))
            .and_then(|text| text.split_once('('))
        else {
            continue;
        };
        let Some(end) = rest.find(')') else { continue };
        let args: Vec<String> = rest[..end]
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        let Some(first) = args.first() else { continue };
        match kind {
            "allow" => out.waivers.push((ln, args)),
            "root" => roots.push(ln),
            "bound" => bounds.extend(num_value(first).map(|n| (ln, n))),
            "cost" => out.costs.extend(num_value(first).map(|n| (ln, n))),
            _ => out.unknown_markers.push((ln, kind.to_string())),
        }
    }
    (roots, bounds)
}

/// Walk `src`, producing facts under the logical path `name`.
pub fn walk_file(name: &str, src: &str) -> FileFacts {
    let mut out = FileFacts {
        name: name.to_string(),
        ..FileFacts::default()
    };
    let (roots, bounds) = collect_markers(src, &mut out);
    let toks = lex(src);
    let test_spans = Walker {
        toks: &toks,
        out: &mut out,
        stack: Vec::new(),
        pending: None,
        attrs: Vec::new(),
        span_stack: Vec::new(),
        test_spans: Vec::new(),
    }
    .run();
    out.forbidden = crate::rules::forbidden_hits(&out, &toks, &test_spans);

    // Attach markers by line proximity.
    for ml in roots {
        // The nearest following fn (doc comments / attributes may sit
        // between the marker and the `fn` keyword).
        if let Some(f) = out
            .fns
            .iter_mut()
            .filter(|f| f.line > ml && f.line - ml <= 8)
            .min_by_key(|f| f.line)
        {
            f.root = true;
        }
    }
    for (ml, n) in bounds {
        for l in out.fns.iter_mut().flat_map(|f| &mut f.loops) {
            if l.line == ml || l.line == ml + 1 {
                l.marker_bound = Some(n);
            }
        }
    }
    out
}

#[derive(Debug)]
enum ScopeKind {
    Plain,
    Fn(usize),
    Struct(String),
    /// An `impl` body, or a `trait` body (its own name as the type).
    Impl {
        type_name: String,
        trait_name: Option<String>,
    },
    Loop {
        fn_idx: usize,
        loop_idx: usize,
    },
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    /// This scope (or an ancestor) is test-only.
    test: bool,
}

/// Identifiers that are never a call, macro or field name.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "return", "break", "continue", "let", "mut", "ref", "move", "as", "in",
    "pub", "where", "unsafe", "dyn", "static",
];

/// Keywords that can directly precede a `[` without forming an index
/// expression (slice patterns, mostly).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "mut", "ref", "return", "break", "if", "while", "match", "else", "move", "as",
    "box", "const", "static",
];

struct Walker<'a> {
    toks: &'a [Token],
    out: &'a mut FileFacts,
    stack: Vec<Scope>,
    /// An item or loop header was parsed: the `{` at token `.0` opens
    /// a scope of kind `.1`, test-only if `.2`.
    pending: Option<(usize, ScopeKind, bool)>,
    /// Outer attributes seen since the last item: identifiers joined
    /// by spaces (plus the [`PRIVILEGED_ALIAS`] literal).
    attrs: Vec<String>,
    /// Open `span_begin!` probes of the current fn: (name, line).
    span_stack: Vec<(String, usize)>,
    /// Outermost test-only bodies, `{` to `}`, as token indices.
    test_spans: Vec<(usize, usize)>,
}

impl Walker<'_> {
    /// Walk every token; return the outermost test-only bodies.
    fn run(mut self) -> Vec<(usize, usize)> {
        let mut i = 0;
        while i < self.toks.len() {
            i = self.step(i);
        }
        self.test_spans
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
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
            ScopeKind::Fn(idx) => Some(idx),
            _ => None,
        })
    }

    /// Index of the first token at or after `j`, outside parens and
    /// brackets, that `stop` accepts (`toks.len()` if none).
    fn scan_to(&self, mut j: usize, stop: impl Fn(&Token) -> bool) -> usize {
        let (mut paren, mut bracket) = (0usize, 0usize);
        while let Some(t) = self.toks.get(j) {
            match t.kind {
                TokenKind::Punct('(') => paren += 1,
                TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                TokenKind::Punct('[') => bracket += 1,
                TokenKind::Punct(']') => bracket = bracket.saturating_sub(1),
                _ if paren == 0 && bracket == 0 && stop(t) => break,
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// The body `{` or terminating `;` of the item header at `j`.
    fn header_end(&self, j: usize) -> usize {
        self.scan_to(j, |t| t.is_punct('{') || t.is_punct(';'))
    }

    /// Finish an item header ending at `j`: if it opens a body, leave a
    /// pending scope for the `{` branch, else step past the `;`.
    fn open_body(&mut self, j: usize, kind: ScopeKind, test: bool) -> usize {
        if self.is_punct(j, '{') {
            self.pending = Some((j, kind, test));
            j
        } else {
            j + 1
        }
    }

    /// Process the token at `i`; return the next index.
    fn step(&mut self, i: usize) -> usize {
        let t = &self.toks[i];
        match &t.kind {
            TokenKind::Punct('#') => self.scan_attr(i),
            TokenKind::Punct('{') => {
                let (kind, test) = match self.pending.take_if(|p| p.0 == i) {
                    Some((_, kind, test)) => (kind, test),
                    None => (ScopeKind::Plain, false),
                };
                let inherited = self.inherited_test();
                if test && !inherited {
                    self.test_spans.push((i, self.toks.len()));
                }
                self.stack.push(Scope {
                    kind,
                    test: test || inherited,
                });
                i + 1
            }
            TokenKind::Punct('}') => {
                let scope = self.stack.pop();
                if scope.as_ref().is_some_and(|s| s.test) && !self.inherited_test() {
                    if let Some(span) = self.test_spans.last_mut() {
                        span.1 = i;
                    }
                }
                match scope.map(|s| s.kind) {
                    Some(ScopeKind::Fn(idx)) => {
                        self.out.fns[idx].end_line = t.line;
                        self.span_stack.clear();
                    }
                    Some(ScopeKind::Loop { fn_idx, loop_idx }) => {
                        self.out.fns[fn_idx].loops[loop_idx].end_line = t.line;
                    }
                    _ => {}
                }
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
                "mod" => {
                    let test = self.attrs_mark_test();
                    self.attrs.clear();
                    self.open_body(self.header_end(i + 1), ScopeKind::Plain, test)
                }
                "struct" | "enum" | "union" => self.scan_struct(i),
                "let" => self.scan_let(i),
                "for" | "while" | "loop" => self.scan_loop(i),
                "const" => self.scan_const(i),
                "use" => {
                    self.attrs.clear();
                    i + 1
                }
                "Phase" => {
                    self.scan_row(i);
                    self.scan_expr_ident(i)
                }
                _ => self.scan_expr_ident(i),
            },
            _ => i + 1,
        }
    }

    /// `#[...]` or `#![...]`: collect outer attrs, skip inner ones.
    fn scan_attr(&mut self, i: usize) -> usize {
        let inner = self.is_punct(i + 1, '!');
        let mut j = i + 1 + usize::from(inner);
        if !self.is_punct(j, '[') {
            return i + 1; // stray `#`
        }
        let mut bdepth = 0usize;
        let mut words: Vec<&str> = Vec::new();
        while let Some(t) = self.toks.get(j) {
            j += 1;
            match &t.kind {
                TokenKind::Punct('[') => bdepth += 1,
                TokenKind::Punct(']') => {
                    bdepth -= 1;
                    if bdepth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(s) => words.push(s),
                TokenKind::Str(s) if s == PRIVILEGED_ALIAS => words.push(s),
                _ => {}
            }
        }
        if !inner {
            self.attrs.push(words.join(" "));
        }
        j
    }

    /// `fn name(..) {` — jump the header, open a [`FnBody`].  A fn
    /// without a body (trait declaration) records nothing.
    fn scan_fn(&mut self, i: usize) -> usize {
        let test = self.attrs_mark_test() || self.inherited_test();
        let privileged = self
            .attrs
            .iter()
            .any(|a| a.strip_prefix("doc alias ") == Some(PRIVILEGED_ALIAS));
        self.attrs.clear();
        let Some(name) = self.toks.get(i + 1).and_then(|t| t.ident()) else {
            return i + 1;
        };
        let j = self.header_end(i + 2);
        if !self.is_punct(j, '{') {
            return j + 1;
        }
        let (impl_type, impl_trait) = self
            .stack
            .iter()
            .rev()
            .find_map(|s| match &s.kind {
                ScopeKind::Impl {
                    type_name,
                    trait_name,
                } => Some((Some(type_name.clone()), trait_name.clone())),
                _ => None,
            })
            .unwrap_or_default();
        let line = self.toks[i].line;
        let idx = self.out.fns.len();
        self.out.fns.push(FnBody {
            name: name.to_string(),
            impl_type: impl_type.filter(|t| !t.is_empty()),
            impl_trait,
            line,
            end_line: line,
            in_test: test,
            privileged,
            ..FnBody::default()
        });
        self.open_body(j, ScopeKind::Fn(idx), test)
    }

    /// `impl [Trait for] Type {` / `trait Name {` — jump the header,
    /// remember the names for method attribution.
    fn scan_impl(&mut self, i: usize) -> usize {
        let test = self.attrs_mark_test();
        self.attrs.clear();
        let is_trait = self.toks[i].is_ident("trait");
        let mut j = i + 1;
        let mut angle = 0usize;
        let mut names: Vec<&str> = Vec::new();
        let mut trait_name = None;
        let mut in_where = false;
        while let Some(t) = self.toks.get(j) {
            match &t.kind {
                TokenKind::Punct('<') => angle += 1,
                // `->` is an arrow, not a closing angle.
                TokenKind::Punct('>') if !self.is_punct(j - 1, '-') => {
                    angle = angle.saturating_sub(1)
                }
                TokenKind::Punct('{') => break,
                TokenKind::Punct(';') if angle == 0 => return j + 1,
                TokenKind::Ident(s) if angle == 0 && !in_where => match s.as_str() {
                    "where" => in_where = true,
                    "for" => trait_name = names.last().map(|n| n.to_string()),
                    "dyn" | "mut" | "unsafe" | "const" => {}
                    _ => names.push(s),
                },
                _ => {}
            }
            j += 1;
        }
        let type_name = if is_trait {
            names.first()
        } else {
            names.last()
        };
        let kind = ScopeKind::Impl {
            type_name: type_name.copied().unwrap_or_default().to_string(),
            trait_name,
        };
        self.open_body(j, kind, test)
    }

    /// `struct Name {` (or enum/union): record the definition and open
    /// a field scope.  `union` is contextual: `a.union(b)` is a call.
    fn scan_struct(&mut self, i: usize) -> usize {
        let Some(name) = self.toks.get(i + 1).and_then(|t| t.ident()) else {
            return self.scan_expr_ident(i);
        };
        let test = self.attrs_mark_test();
        self.attrs.clear();
        self.out.structs.push(name.to_string());
        let kind = ScopeKind::Struct(name.to_string());
        self.open_body(self.header_end(i + 2), kind, test)
    }

    /// Is the ident at `j` the `enter` of an `.enter(` call?
    fn is_enter_call(&self, j: usize) -> bool {
        self.toks[j].is_ident("enter")
            && j > 0
            && self.is_punct(j - 1, '.')
            && self.is_punct(j + 1, '(')
    }

    /// Lookahead over a `let` statement; records the binding but does
    /// not consume tokens (the initializer is re-walked for calls).
    fn scan_let(&mut self, i: usize) -> usize {
        self.attrs.clear();
        let mut j = i + 1;
        if self.toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = self.toks.get(j).and_then(|t| t.ident()) else {
            return i + 1; // tuple/struct pattern: not tracked
        };
        j += 1;
        // Optional `: Type`
        let mut type_has_voguard = false;
        if self.is_punct(j, ':') && !self.is_punct(j + 1, ':') {
            j += 1;
            while let Some(t) = self.toks.get(j) {
                if t.is_punct('=') || t.is_punct(';') {
                    break;
                }
                type_has_voguard |= t.is_ident("VoGuard");
                j += 1;
            }
        }
        // Initializer until `;` at balanced depth.
        let mut init_has_enter = false;
        if self.is_punct(j, '=') {
            j += 1;
            let (mut paren, mut bracket, mut brace) = (0usize, 0usize, 0usize);
            let mut steps = 0;
            while j < self.toks.len() && steps < 4096 {
                match &self.toks[j].kind {
                    TokenKind::Punct('(') => paren += 1,
                    TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                    TokenKind::Punct('[') => bracket += 1,
                    TokenKind::Punct(']') => bracket = bracket.saturating_sub(1),
                    TokenKind::Punct('{') => brace += 1,
                    TokenKind::Punct('}') => {
                        if brace == 0 {
                            break; // malformed; bail out of the lookahead
                        }
                        brace -= 1;
                    }
                    TokenKind::Punct(';') if paren == 0 && bracket == 0 && brace == 0 => break,
                    TokenKind::Ident(_) if self.is_enter_call(j) => init_has_enter = true,
                    _ => {}
                }
                j += 1;
                steps += 1;
            }
        }
        self.out.lets.push(LetBinding {
            name: name.to_string(),
            line: self.toks[i].line,
            init_has_enter,
            type_has_voguard,
            fn_idx: self.current_fn(),
            in_test: self.inherited_test(),
        });
        i + 1
    }

    /// `for <pat> in <iterable> {`, `while <cond> {` or `loop {` inside
    /// a fn body.  The header keeps being scanned: it may hold calls.
    fn scan_loop(&mut self, i: usize) -> usize {
        let Some(fn_idx) = self.current_fn() else {
            return i + 1;
        };
        let mut bounds = (None, None);
        let body = if self.toks[i].is_ident("loop") {
            i + 1
        } else if self.toks[i].is_ident("while") {
            self.header_end(i + 1)
        } else {
            // `for<'a>` is a higher-ranked bound, not a loop.
            if self.is_punct(i + 1, '<') {
                return i + 1;
            }
            let in_idx = self.scan_to(i + 1, |t| {
                t.is_ident("in") || t.is_punct('{') || t.is_punct(';')
            });
            if !self.toks.get(in_idx).is_some_and(|t| t.is_ident("in")) {
                return i + 1;
            }
            let body = self.scan_to(in_idx + 1, |t| t.is_punct('{'));
            bounds = static_trip_count(&self.toks[in_idx + 1..body]);
            body
        };
        if !self.is_punct(body, '{') {
            return i + 1;
        }
        let line = self.toks[i].line;
        let loops = &mut self.out.fns[fn_idx].loops;
        let loop_idx = loops.len();
        loops.push(LoopInfo {
            line,
            end_line: line,
            marker_bound: None,
            static_bound: bounds.0,
            static_end_const: bounds.1,
        });
        self.pending = Some((body, ScopeKind::Loop { fn_idx, loop_idx }, false));
        i + 1
    }

    /// `const NAME: Ty = <num>;` — feed the loop-bound const table.
    fn scan_const(&mut self, i: usize) -> usize {
        let name = self.toks.get(i + 1).and_then(|t| t.ident());
        let Some(name) = name.filter(|n| *n != "fn") else {
            return i + 1;
        };
        let eq = self.scan_to(i + 2, |t| {
            t.is_punct(';') || t.is_punct('{') || t.is_punct('=')
        });
        if self.is_punct(eq, '=') && self.is_punct(eq + 2, ';') {
            if let Some(v) = self.toks.get(eq + 1).and_then(num_tok) {
                self.out.consts.insert(name.to_string(), v);
            }
        }
        i + 1
    }

    /// `Phase::new("probe", Type::run, Type::undo)` — record the row.
    fn scan_row(&mut self, i: usize) {
        let is = |k: usize, c: char| self.is_punct(k, c);
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
        let is_value_end = match i.checked_sub(1).map(|p| &self.toks[p].kind) {
            Some(TokenKind::Ident(s)) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
            Some(TokenKind::Punct(')') | TokenKind::Punct(']')) => true,
            _ => false,
        };
        if is_value_end {
            self.out.fns[fn_idx].index_sites.push(self.toks[i].line);
        }
    }

    /// Identifier in expression/field position: `Ordering::Relaxed`,
    /// struct field, macro call, call, or field access.
    fn scan_expr_ident(&mut self, i: usize) -> usize {
        let Some(id) = self.toks[i].ident() else {
            return i + 1;
        };
        let line = self.toks[i].line;
        let fn_idx = self.current_fn();
        if let Some(idx) = fn_idx {
            self.out.fns[idx].idents.insert(id.to_string());
        }

        if id == "Relaxed"
            && i >= 3
            && self.is_punct(i - 1, ':')
            && self.is_punct(i - 2, ':')
            && self.toks[i - 3].is_ident("Ordering")
        {
            self.out.relaxed.push(line);
        }

        // Struct field: `name :` directly inside a struct body.
        if let Some(ScopeKind::Struct(sname)) = self.stack.last().map(|s| &s.kind) {
            if self.is_punct(i + 1, ':') && !self.is_punct(i + 2, ':') {
                let mut type_idents = Vec::new();
                let mut j = i + 2;
                let (mut angle, mut paren) = (0usize, 0usize);
                while let Some(t) = self.toks.get(j) {
                    match &t.kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle = angle.saturating_sub(1),
                        TokenKind::Punct('(') => paren += 1,
                        TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                        TokenKind::Punct(',') if angle == 0 && paren == 0 => break,
                        TokenKind::Punct('}') => break,
                        TokenKind::Ident(s) => type_idents.push(s.clone()),
                        _ => {}
                    }
                    j += 1;
                }
                self.out.fields.push(FieldDef {
                    struct_name: sname.clone(),
                    field_name: id.to_string(),
                    line,
                    type_idents,
                    in_test: self.inherited_test(),
                });
            }
        }

        if KEYWORDS.contains(&id) {
            return i + 1;
        }
        // Macro invocation `name!(..)` / `name![..]` / `name!{..}`, or
        // plain call `name(..)`.
        let is_macro = self.is_punct(i + 1, '!')
            && (self.is_punct(i + 2, '(')
                || self.is_punct(i + 2, '[')
                || self.is_punct(i + 2, '{'));
        if is_macro || self.is_punct(i + 1, '(') {
            let (mut qualifier, mut via_dot) = (None, false);
            let (mut args, mut args_have_enter) = (Vec::new(), false);
            if !is_macro {
                (qualifier, via_dot) = self.call_qualifier(i);
                (args, args_have_enter) = self.call_args(i + 1);
            } else if let Some(idx) = fn_idx.filter(|_| id == "span_begin" || id == "span_end") {
                self.scan_span_event(idx, id, line, i + 2);
            }
            self.out.calls.push(Call {
                name: id.to_string(),
                line,
                qualifier,
                via_dot,
                is_macro,
                args,
                args_have_enter,
                fn_idx,
                in_test: self.inherited_test(),
            });
        }
        i + 1
    }

    /// Record a `span_begin!`/`span_end!` probe with a literal name:
    /// pair begin/end into a [`PhaseSpan`] on the enclosing fn.
    fn scan_span_event(&mut self, fn_idx: usize, which: &str, line: usize, open: usize) {
        let mut depth = 0usize;
        let mut name = None;
        for t in &self.toks[open..] {
            match &t.kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Str(s) if !s.is_empty() && name.is_none() => name = Some(s.clone()),
                _ => {}
            }
        }
        let Some(name) = name else { return };
        if which == "span_begin" {
            self.span_stack.push((name, line));
        } else if let Some(pos) = self.span_stack.iter().rposition(|(n, _)| *n == name) {
            let (name, start_line) = self.span_stack.remove(pos);
            self.out.fns[fn_idx].phases.push(PhaseSpan {
                name,
                start_line,
                end_line: line,
            });
        }
    }

    /// The receiver/path qualifier of a call whose name is at `i`, and
    /// whether it is method-call syntax.
    fn call_qualifier(&self, i: usize) -> (Option<String>, bool) {
        let ident_at = |k: Option<usize>| k.and_then(|k| self.toks[k].ident()).map(String::from);
        if i >= 1 && self.is_punct(i - 1, '.') {
            // `self.pv().invlpg(..)`: walk back through the receiver
            // call's parens to the function name.
            if i >= 2 && self.is_punct(i - 2, ')') {
                let mut depth = 0usize;
                for k in (0..=i - 2).rev() {
                    match self.toks[k].kind {
                        TokenKind::Punct(')') => depth += 1,
                        TokenKind::Punct('(') => {
                            depth -= 1;
                            if depth == 0 {
                                return (ident_at(k.checked_sub(1)), true);
                            }
                        }
                        _ => {}
                    }
                }
                return (None, true);
            }
            (ident_at(i.checked_sub(2)), true)
        } else if i >= 2 && self.is_punct(i - 1, ':') && self.is_punct(i - 2, ':') {
            (ident_at(i.checked_sub(3)), false)
        } else {
            (None, false)
        }
    }

    /// Identifiers inside the argument list opening at `open` (a `(`),
    /// and whether one of them is an `.enter(` call.
    fn call_args(&self, open: usize) -> (Vec<String>, bool) {
        let mut args = Vec::new();
        let mut has_enter = false;
        let mut depth = 0usize;
        for j in open..self.toks.len() {
            match &self.toks[j].kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(s) => {
                    has_enter |= self.is_enter_call(j);
                    args.push(s.clone());
                }
                _ => {}
            }
        }
        (args, has_enter)
    }
}

/// Statically visible trip count of a `for` iterable: numeric ranges
/// (`0..64`, `2..=10`), `lo..CONST` (returned for later resolution),
/// or a `.take(N)` anywhere in the chain.
fn static_trip_count(toks: &[Token]) -> (Option<u64>, Option<String>) {
    // `.take(N)` dominates whatever it wraps.
    for w in toks.windows(4) {
        if w[0].is_punct('.') && w[1].is_ident("take") && w[2].is_punct('(') {
            if let Some(v) = num_tok(&w[3]) {
                return (Some(v), None);
            }
        }
    }
    // Range forms.
    for j in 0..toks.len().saturating_sub(2) {
        if !(toks[j + 1].is_punct('.') && toks[j + 2].is_punct('.')) {
            continue;
        }
        let Some(lo) = num_tok(&toks[j]) else {
            continue;
        };
        let inclusive = toks.get(j + 3).is_some_and(|t| t.is_punct('='));
        let hi = toks.get(j + 3 + usize::from(inclusive));
        if let Some(hi) = hi.and_then(num_tok) {
            return (Some(hi.saturating_sub(lo) + u64::from(inclusive)), None);
        }
        // `0..CONST`: resolve against the workspace table.
        if let Some(c) = hi.and_then(|t| t.ident()).filter(|c| {
            lo == 0
                && !inclusive
                && c.chars()
                    .all(|ch| ch.is_ascii_uppercase() || ch == '_' || ch.is_ascii_digit())
        }) {
            return (None, Some(c.to_string()));
        }
    }
    (None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_carry_receiver_and_impl_context() {
        let src = r#"
            pub trait PvOps {
                fn mode(&self) -> ExecMode;
                fn name(&self) -> &'static str { helper() }
            }
            impl PvOps for BareOps {
                fn load_base_table(&self, cpu: &Arc<Cpu>) -> Result<(), E> {
                    cpu.write_cr3(pgd.0)?;
                    self.pv().invlpg(va);
                    Ok(())
                }
            }
            fn free() { machine.mem.write_pte(cpu, t, 0, v); mem::forget(g); }
        "#;
        let f = walk_file("x.rs", src);
        let call = |name: &str| f.calls.iter().find(|c| c.name == name).unwrap();
        let owner = |c: &Call| &f.fns[c.fn_idx.unwrap()];
        // A bodiless declaration is no fn; a trait's default method
        // belongs to the trait, a trait impl's fn to both names.
        assert!(!f.fns.iter().any(|b| b.name == "mode"));
        let helper = owner(call("helper"));
        assert_eq!(
            (helper.name.as_str(), helper.impl_type.as_deref()),
            ("name", Some("PvOps"))
        );
        assert!(helper.impl_trait.is_none());
        let wc = call("write_cr3");
        assert_eq!((wc.qualifier.as_deref(), wc.via_dot), (Some("cpu"), true));
        assert_eq!(owner(wc).impl_trait.as_deref(), Some("PvOps"));
        assert_eq!(owner(wc).impl_type.as_deref(), Some("BareOps"));
        assert_eq!(call("invlpg").qualifier.as_deref(), Some("pv"));
        let wp = call("write_pte");
        assert_eq!(wp.qualifier.as_deref(), Some("mem"));
        assert!(owner(wp).impl_trait.is_none());
        assert_eq!(wp.args, vec!["cpu", "t", "v"]);
        let forget = call("forget");
        assert_eq!(
            (forget.qualifier.as_deref(), forget.via_dot),
            (Some("mem"), false)
        );
    }

    #[test]
    fn cfg_test_scopes_mark_calls_and_fns() {
        let src = r#"
            fn prod() { cpu.lidt(t); }
            #[cfg(test)]
            mod tests {
                fn helper() { cpu.lidt(t); for i in 0..4 { poke(i); } }
                #[test]
                fn case() { cpu.lgdt(g); }
            }
        "#;
        let f = walk_file("x.rs", src);
        let lidt: Vec<bool> = f
            .calls
            .iter()
            .filter(|c| c.name == "lidt")
            .map(|c| c.in_test)
            .collect();
        assert_eq!(lidt, vec![false, true]);
        assert!(f.calls.iter().find(|c| c.name == "lgdt").unwrap().in_test);
        let helper = f.fns.iter().find(|b| b.name == "helper").unwrap();
        assert!(helper.in_test);
        assert_eq!(helper.loops.len(), 1);
        assert!(!f.fns[0].in_test);
    }

    #[test]
    fn impl_in_a_signature_is_not_a_block_and_impl_for_is_not_a_loop() {
        let src = r#"
            fn make() -> impl Iterator<Item = u8> { [1u8].into_iter() }
            fn after() { cpu.write_cr3(0); }
            impl PvOps for BareOps {
                fn mode(&self) -> ExecMode { ExecMode::Native }
            }
        "#;
        let f = walk_file("x.rs", src);
        let after = f.fns.iter().find(|b| b.name == "after").unwrap();
        assert!(after.impl_type.is_none() && after.impl_trait.is_none());
        let mode = f.fns.iter().find(|b| b.name == "mode").unwrap();
        assert_eq!(mode.impl_type.as_deref(), Some("BareOps"));
        assert!(mode.loops.is_empty());
    }

    #[test]
    fn struct_fields_and_guard_lets() {
        let src = r#"
            struct Holder { guard: Option<VoGuard>, n: usize }
            fn f(rc: &Arc<VoRefCount>) {
                let g = rc.enter();
                let _ = rc.enter();
                let h: VoGuard = make();
                drop(g);
            }
        "#;
        let f = walk_file("x.rs", src);
        assert!(f.defines_struct("Holder"));
        let fd = f.fields.iter().find(|x| x.field_name == "guard").unwrap();
        assert!(fd.type_idents.iter().any(|t| t == "VoGuard"));
        assert_eq!(f.fields.len(), 2);
        let g = f.lets.iter().find(|l| l.name == "g").unwrap();
        assert!(g.init_has_enter);
        let anon = f.lets.iter().find(|l| l.name == "_").unwrap();
        assert!(anon.init_has_enter);
        let h = f.lets.iter().find(|l| l.name == "h").unwrap();
        assert!(h.type_has_voguard);
    }

    #[test]
    fn fn_ident_sets_cover_bodies() {
        let src = r#"
            impl Rendezvous {
                pub fn begin(&self) -> Result<(), E> {
                    self.ready.store(0, Ordering::Release);
                    self.go.store(false, Ordering::Release);
                    Ok(())
                }
            }
        "#;
        let f = walk_file("x.rs", src);
        let begin = f.fns.iter().find(|x| x.name == "begin").unwrap();
        assert_eq!(begin.impl_type.as_deref(), Some("Rendezvous"));
        assert!(begin.idents.contains("ready"));
        assert!(begin.idents.contains("go"));
        assert!(!begin.idents.contains("done"));
    }

    #[test]
    fn relaxed_orderings_and_waivers() {
        let src = "fn f(x: &AtomicUsize) {\n    // volint::allow(ATOMIC-ORDER): stats only\n    x.load(Ordering::Relaxed);\n    x.store(1, Ordering::Relaxed);\n}\n";
        let f = walk_file("x.rs", src);
        assert_eq!(f.relaxed, vec![3, 4]);
        assert_eq!(f.waiver_match("ATOMIC-ORDER", 3), Some(2));
        assert_eq!(f.waiver_match("ATOMIC-ORDER", 4), None);
        assert_eq!(f.waiver_match("VO-BYPASS", 3), None);
    }

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
        let p = walk_file("x.rs", src);
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "attach");
        assert_eq!(f.impl_type.as_deref(), Some("Mercury"));
        assert_eq!(f.loops.len(), 3);
        assert!(f.loops[0].marker_bound.is_none());
        assert!(f.loops[0].end_line > f.loops[0].line);
        assert_eq!(f.loops[1].marker_bound, Some(64));
        assert_eq!(f.loops[2].static_bound, Some(16));
        assert!(p.calls_in(0).any(|c| c.name == "all_table_frames"));
        assert!(p.calls_in(0).any(|c| c.name == "flip"));
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
        let p = walk_file("x.rs", src);
        let f = &p.fns[0];
        assert!(p.calls_in(0).any(|c| c.name == "vec" && c.is_macro));
        assert!(p.calls_in(0).any(|c| c.name == "format" && c.is_macro));
        assert_eq!(f.phases.len(), 1);
        assert_eq!(f.phases[0].name, "switch.transfer.flip_tables");
        assert!(f.phases[0].end_line > f.phases[0].start_line);
        // The dynamic-name span form is ignored, not mispaired.
        let src2 = "fn f(cpu: &Cpu) { merctrace::span_begin!(cpu.id, _span, cpu.cycles()); }";
        assert!(walk_file("y.rs", src2).fns[0].phases.is_empty());
    }

    #[test]
    fn index_sites() {
        let src = r#"
            fn f(&self, xs: &[u8]) -> u8 {
                let [a, b] = split(xs);
                self.stats.deferrals.incr();
                xs[3] + a + b
            }
        "#;
        let p = walk_file("x.rs", src);
        assert_eq!(
            p.fns[0].index_sites.len(),
            1,
            "slice pattern must not count"
        );
    }

    #[test]
    fn root_markers_attach_to_following_fn() {
        let src = r#"
            // volint::root(SWITCH)
            fn handle_switch(&self) {}

            fn unrooted(&self) {}
        "#;
        let p = walk_file("x.rs", src);
        assert!(p.fns[0].root);
        assert!(!p.fns[1].root);
    }

    #[test]
    fn consts_and_costs() {
        let src = "pub const ENTRIES_PER_TABLE: usize = 512;\n\
                   struct S {\n    // a comment, not a marker\n    job: Mutex<u8>,\n}\n\
                   fn f() {\n    // volint::cost(4_096)\n    tick();\n    for i in 0..ENTRIES_PER_TABLE { walk(i); }\n}\n";
        let p = walk_file("x.rs", src);
        assert_eq!(p.consts.get("ENTRIES_PER_TABLE"), Some(&512));
        assert_eq!(p.costs, vec![(7, 4096)]);
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
        let p = walk_file("x.rs", src);
        let f = &p.fns[0];
        assert_eq!(f.loops.len(), 2);
        assert!(f.loops[0].resolved_bound(&BTreeMap::new()).is_none());
        assert_eq!(f.loops[1].marker_bound, Some(1000));
    }

    #[test]
    fn num_values() {
        assert_eq!(num_value("16_384"), Some(16384));
        assert_eq!(num_value("0x40"), Some(64));
        assert_eq!(num_value("256usize"), Some(256));
        assert_eq!(num_value("abc"), None);
    }

    #[test]
    fn privileged_alias_marks_the_next_fn_only() {
        let src = r#"
            impl Cpu {
                #[doc(alias = "volint-privileged")]
                pub fn write_cr3(&self, v: u64) {}

                pub fn cycles(&self) -> u64 { 0 }

                /// Loads the IDT.
                #[doc(alias = "volint-privileged")]
                #[inline]
                pub fn lidt(&self, base: u64) {}

                #[doc(alias = "other")]
                pub fn tick(&self, c: u64) {}
            }
        "#;
        let f = walk_file("x.rs", src);
        let marked: Vec<_> = f
            .fns
            .iter()
            .filter(|b| b.privileged)
            .map(|b| b.name.as_str())
            .collect();
        assert_eq!(marked, vec!["write_cr3", "lidt"]);
    }
}
