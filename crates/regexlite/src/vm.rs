//! Pike VM: NFA simulation with capture slots in linear time.
//!
//! The VM advances all live threads in lock step over the input, keeping
//! threads ordered by priority so greedy/lazy quantifier semantics and
//! leftmost-first alternation fall out of the ordering. Captures travel with
//! each thread as reference-counted slot vectors (cloned on write).

// INC004 (DESIGN.md §10): checked reads only, so no input can panic the VM.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::ast::PerlClass;
use crate::compile::{perl_matches, Inst, Program};
use std::rc::Rc;

type Slots = Rc<Vec<Option<usize>>>;

struct ThreadList {
    /// Dense list of (pc, slots), in priority order.
    threads: Vec<(usize, Slots)>,
    /// Sparse visited markers: `seen[pc] == gen` means pc already queued.
    seen: Vec<u64>,
    gen: u64,
}

impl ThreadList {
    fn new(n: usize) -> Self {
        ThreadList {
            threads: Vec::new(),
            seen: vec![0; n],
            gen: 0,
        }
    }

    fn clear(&mut self) {
        self.threads.clear();
        self.gen += 1;
    }
}

/// Zero-width assertion context at an input position.
#[derive(Clone, Copy)]
struct Ctx {
    at_start: bool,
    at_end: bool,
    prev_is_word: bool,
    next_is_word: bool,
    pos: usize,
}

fn is_word(c: char) -> bool {
    perl_matches(PerlClass::Word, c)
}

/// Deterministic execution budget, replacing any wall-clock guard: the VM
/// spends one unit of fuel per scheduled or resumed thread and aborts the
/// search when the tank runs dry. The Pike VM visits each `(instruction,
/// position)` pair at most once, so [`fuel_for`] — a small multiple of
/// `insts × positions` — is unreachable unless the scheduler is broken;
/// exhaustion is therefore a bug signal, not a tuning knob, and the step
/// count is bit-for-bit reproducible across runs and machines.
#[derive(Debug, Clone, Copy)]
pub struct Fuel {
    remaining: u64,
    used: u64,
}

impl Fuel {
    /// A budget of exactly `steps` units.
    pub fn new(steps: u64) -> Fuel {
        Fuel {
            remaining: steps,
            used: 0,
        }
    }

    /// Steps consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Whether the budget ran out (the search was abandoned).
    pub fn exhausted(&self) -> bool {
        self.remaining == 0
    }

    /// Burns one unit; returns false once the tank is empty.
    fn burn(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        self.used += 1;
        true
    }
}

/// The default budget for a search: 4 × instructions × input positions,
/// comfortably above the VM's theoretical one-visit-per-pair bound.
pub fn fuel_for(prog: &Program, text_len: usize) -> u64 {
    let insts = prog.insts.len() as u64 + 1;
    let positions = text_len as u64 + 2;
    insts.saturating_mul(positions).saturating_mul(4)
}

/// Adds a thread, following epsilon transitions until a `Char`/`Match`.
fn add_thread(
    prog: &Program,
    list: &mut ThreadList,
    pc: usize,
    slots: Slots,
    ctx: Ctx,
    fuel: &mut Fuel,
) {
    if !fuel.burn() {
        return;
    }
    // Checked access throughout: a pc outside the program (a compiler bug)
    // drops the thread instead of panicking mid-search.
    match list.seen.get_mut(pc) {
        Some(gen) if *gen == list.gen => return,
        Some(gen) => *gen = list.gen,
        None => {
            debug_assert!(false, "thread pc {pc} outside program");
            return;
        }
    }
    let Some(inst) = prog.insts.get(pc) else {
        debug_assert!(false, "thread pc {pc} outside program");
        return;
    };
    match inst {
        Inst::Jmp(t) => add_thread(prog, list, *t, slots, ctx, fuel),
        Inst::Split(a, b) => {
            add_thread(prog, list, *a, slots.clone(), ctx, fuel);
            add_thread(prog, list, *b, slots, ctx, fuel);
        }
        Inst::Save(n) => {
            let mut new_slots = slots;
            {
                let v = Rc::make_mut(&mut new_slots);
                if let Some(slot) = v.get_mut(*n) {
                    *slot = Some(ctx.pos);
                }
            }
            add_thread(prog, list, pc + 1, new_slots, ctx, fuel);
        }
        Inst::AssertStart => {
            if ctx.at_start {
                add_thread(prog, list, pc + 1, slots, ctx, fuel);
            }
        }
        Inst::AssertEnd => {
            if ctx.at_end {
                add_thread(prog, list, pc + 1, slots, ctx, fuel);
            }
        }
        Inst::WordBoundary { negated } => {
            let boundary = ctx.prev_is_word != ctx.next_is_word;
            if boundary != *negated {
                add_thread(prog, list, pc + 1, slots, ctx, fuel);
            }
        }
        Inst::Char(_) | Inst::Match => {
            list.threads.push((pc, slots));
        }
    }
}

/// Runs the VM over `text[start..]`, returning the capture slots of the
/// leftmost match (greedy within the leftmost start).
fn run(prog: &Program, text: &str, start: usize, fuel: &mut Fuel) -> Option<Vec<Option<usize>>> {
    let n = prog.insts.len();
    let mut clist = ThreadList::new(n);
    let mut nlist = ThreadList::new(n);
    let empty_slots: Slots = Rc::new(vec![None; prog.n_slots()]);

    let mut best: Option<Vec<Option<usize>>> = None;

    // Character stream with byte offsets; we iterate positions start..=len.
    // A start offset outside the text (or off a char boundary) matches
    // nothing rather than panicking.
    let tail = text.get(start..)?;
    let mut chars = tail.char_indices().map(|(i, c)| (start + i, c)).peekable();
    let mut prev_char: Option<char> = if start == 0 {
        None
    } else {
        text.get(..start).and_then(|head| head.chars().next_back())
    };

    clist.clear();
    loop {
        let (pos, cur) = match chars.peek().copied() {
            Some((i, c)) => (i, Some(c)),
            None => (text.len(), None),
        };
        let ctx = Ctx {
            at_start: pos == 0,
            at_end: cur.is_none(),
            prev_is_word: prev_char.is_some_and(is_word),
            next_is_word: cur.is_some_and(is_word),
            pos,
        };

        // Seed a new lowest-priority thread at this position while no match
        // has been found (unanchored leftmost search).
        if best.is_none() {
            add_thread(prog, &mut clist, 0, empty_slots.clone(), ctx, fuel);
        }
        if clist.threads.is_empty() && best.is_some() {
            break;
        }
        if fuel.exhausted() {
            // Out of budget: report whatever was found before the cutoff.
            return best;
        }

        nlist.clear();
        let threads = std::mem::take(&mut clist.threads);
        for (pc, slots) in threads {
            if !fuel.burn() {
                break;
            }
            let Some(inst) = prog.insts.get(pc) else {
                debug_assert!(false, "thread pc {pc} outside program");
                continue;
            };
            match inst {
                Inst::Char(pred) => {
                    if let Some(c) = cur {
                        if pred.matches(c, prog.case_insensitive) {
                            let next_pos = pos + c.len_utf8();
                            // Context for epsilon closure at the *next* position.
                            let next_ctx = Ctx {
                                at_start: false,
                                at_end: next_pos >= text.len(),
                                prev_is_word: is_word(c),
                                next_is_word: next_char_at(text, next_pos).is_some_and(is_word),
                                pos: next_pos,
                            };
                            add_thread(prog, &mut nlist, pc + 1, slots, next_ctx, fuel);
                        }
                    }
                }
                Inst::Match => {
                    // Highest-priority match at this step: record it and cut
                    // all lower-priority threads.
                    best = Some(slots.as_ref().clone());
                    break;
                }
                _ => unreachable!("epsilon instruction in thread list"),
            }
        }

        std::mem::swap(&mut clist, &mut nlist);
        match chars.next() {
            Some((_, c)) => prev_char = Some(c),
            None => break,
        }
    }

    best
}

fn next_char_at(text: &str, pos: usize) -> Option<char> {
    text.get(pos..).and_then(|s| s.chars().next())
}

/// Finds the leftmost match; returns `(start, end)` byte offsets.
pub fn search(prog: &Program, text: &str, start: usize) -> Option<(usize, usize)> {
    let mut fuel = Fuel::new(fuel_for(prog, text.len()));
    let slots = run(prog, text, start, &mut fuel)?;
    let slot = |i: usize| slots.get(i).copied().flatten();
    Some((slot(0)?, slot(1)?))
}

/// Finds the leftmost match and returns all capture slots.
pub fn search_captures(prog: &Program, text: &str, start: usize) -> Option<Vec<Option<usize>>> {
    let mut fuel = Fuel::new(fuel_for(prog, text.len()));
    run(prog, text, start, &mut fuel)
}

/// [`search`] under an explicit budget, reporting the steps consumed.
/// Used by the linearity tests and available to callers that want a hard
/// ceiling on worst-case work.
pub fn search_fueled(
    prog: &Program,
    text: &str,
    start: usize,
    budget: u64,
) -> (Option<(usize, usize)>, Fuel) {
    let mut fuel = Fuel::new(budget);
    let found = run(prog, text, start, &mut fuel).and_then(|slots| {
        let slot = |i: usize| slots.get(i).copied().flatten();
        Some((slot(0)?, slot(1)?))
    });
    (found, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;

    fn prog(pat: &str) -> Program {
        compile(&parse(pat).unwrap(), false).unwrap()
    }

    #[test]
    fn unanchored_search_finds_interior_match() {
        let p = prog("bc");
        assert_eq!(search(&p, "abcd", 0), Some((1, 3)));
    }

    #[test]
    fn leftmost_wins_over_longer_later_match() {
        let p = prog("a+");
        assert_eq!(search(&p, "a aaaa", 0), Some((0, 1)));
    }

    #[test]
    fn search_from_offset() {
        let p = prog("a+");
        assert_eq!(search(&p, "a aaaa", 1), Some((2, 6)));
    }

    #[test]
    fn anchored_end_requires_full_tail() {
        let p = prog("b$");
        assert_eq!(search(&p, "ab", 0), Some((1, 2)));
        assert_eq!(search(&p, "ba", 0), None);
    }

    #[test]
    fn captures_survive_priority_resolution() {
        let p = prog("(a+)(b?)");
        let slots = search_captures(&p, "xaab", 0).unwrap();
        assert_eq!(slots[0], Some(1));
        assert_eq!(slots[1], Some(4));
        assert_eq!((slots[2], slots[3]), (Some(1), Some(3)));
        assert_eq!((slots[4], slots[5]), (Some(3), Some(4)));
    }

    #[test]
    fn word_boundary_at_offsets() {
        let p = prog(r"\bword\b");
        assert_eq!(search(&p, "a word.", 0), Some((2, 6)));
        assert_eq!(search(&p, "sword", 0), None);
        // \b just after the search start offset still sees prior context.
        assert_eq!(search(&p, "sword", 1), None);
    }

    #[test]
    fn empty_pattern_matches_everywhere() {
        let p = prog("");
        assert_eq!(search(&p, "xyz", 0), Some((0, 0)));
        assert_eq!(search(&p, "xyz", 2), Some((2, 2)));
        assert_eq!(search(&p, "", 0), Some((0, 0)));
    }

    #[test]
    fn multibyte_offsets_are_bytes() {
        let p = prog("b");
        assert_eq!(search(&p, "éb", 0), Some((2, 3)));
    }

    #[test]
    fn default_fuel_is_never_exhausted_on_normal_input() {
        let p = prog(r"(\w+)@(\w+)");
        let text = "contact someone@example repeatedly ".repeat(20);
        let (found, fuel) = search_fueled(&p, &text, 0, fuel_for(&p, text.len()));
        assert!(found.is_some());
        assert!(!fuel.exhausted());
        assert!(fuel.used() > 0);
    }

    #[test]
    fn tiny_budget_aborts_deterministically() {
        let p = prog("a+b");
        let text = "aaaaaaaaab";
        let (found, fuel) = search_fueled(&p, text, 0, 3);
        assert_eq!(found, None);
        assert!(fuel.exhausted());
        // The exact step count is reproducible run to run.
        let (_, fuel2) = search_fueled(&p, text, 0, 3);
        assert_eq!(fuel.used(), fuel2.used());
    }

    #[test]
    fn step_counts_are_deterministic() {
        let p = prog(r"\d{3}-\d{4}");
        let text = "call 555-0187 or 555-0188";
        let budget = fuel_for(&p, text.len());
        let (m1, f1) = search_fueled(&p, text, 0, budget);
        let (m2, f2) = search_fueled(&p, text, 0, budget);
        assert_eq!(m1, m2);
        assert_eq!(f1.used(), f2.used());
    }

    #[test]
    fn out_of_bounds_start_is_a_clean_miss() {
        let p = prog("a");
        assert_eq!(search(&p, "abc", 99), None);
        // Non-boundary offset into a multibyte char is also a miss.
        assert_eq!(search(&p, "éa", 1), None);
    }
}
