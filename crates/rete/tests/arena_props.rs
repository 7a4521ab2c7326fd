//! Property tests: arena-token binding reconstruction on random join
//! chains, checked directly against the chain spec that generated them.
//!
//! The arena stores only the values each level *introduced* plus a parent
//! pointer. These tests build a random chain and check that every
//! variable resolves to the value its level introduced through
//! [`TokenArena::value`]'s parent-chain walk, that no binding is lost or
//! invented, that the `FlatToken` wire form round-trips across arenas,
//! and that refcount release drains the arena completely.

use mpps_ops::{Value, WmeId};
use mpps_rete::{FlatToken, TokenArena, TokenId, VarRef};
use proptest::prelude::*;

/// One random chain: per level, a matched WME id and the values the level
/// introduces (0–3 of them; levels may introduce nothing, as negative-CE
/// passthroughs and bind-free joins do).
type Spec = Vec<(u64, Vec<Value>)>;

fn chain() -> impl Strategy<Value = Spec> {
    let value = prop_oneof![
        (0i64..1000).prop_map(Value::Int),
        (0usize..8).prop_map(|i| Value::sym(&format!("apv-sym-{i}"))),
    ];
    prop::collection::vec((0u64..64, prop::collection::vec(value, 0..4)), 1..6)
}

/// Build `spec` into `arena`, returning the top token (one reference).
fn build(arena: &mut TokenArena, spec: &Spec) -> TokenId {
    let mut cur = TokenId::NONE;
    for (wme, vals) in spec {
        let t = arena.alloc(cur, WmeId(*wme));
        for v in vals {
            arena.push_val(t, *v);
        }
        if cur != TokenId::NONE {
            // The child's parent reference keeps `cur` alive.
            arena.release(cur);
        }
        cur = t;
    }
    cur
}

fn wme_ids(spec: &Spec) -> Vec<WmeId> {
    spec.iter().map(|(wme, _)| WmeId(*wme)).collect()
}

/// Every `(VarRef, value)` the spec introduces.
fn bindings(spec: &Spec) -> impl Iterator<Item = (VarRef, Value)> + '_ {
    spec.iter().enumerate().flat_map(|(level, (_, vals))| {
        vals.iter().enumerate().map(move |(slot, v)| {
            let r = VarRef {
                level: level as u16,
                slot: slot as u16,
            };
            (r, *v)
        })
    })
}

proptest! {
    #[test]
    fn arena_reconstruction_matches_chain_spec(spec in chain()) {
        let mut arena = TokenArena::new();
        let top = build(&mut arena, &spec);

        prop_assert_eq!(arena.wme_ids(top), wme_ids(&spec));

        // Every introduced variable resolves to the value its level bound.
        for (r, v) in bindings(&spec) {
            prop_assert_eq!(arena.value(top, r), v);
        }

        // The wire form carries exactly the introduced bindings, level by
        // level — the arena lost none and invented none.
        let flat: FlatToken = arena.extract(top);
        let lens: Vec<u16> = spec.iter().map(|(_, vals)| vals.len() as u16).collect();
        prop_assert_eq!(&flat.lens, &lens);
        prop_assert_eq!(flat.vals.len(), bindings(&spec).count());

        // The wire form round-trips into a fresh arena (a worker shipping
        // a token to a peer) with identical chain identity and values.
        let mut other = TokenArena::new();
        let t2 = other.intern(&flat);
        prop_assert_eq!(other.wme_ids(t2), arena.wme_ids(top));
        prop_assert_eq!(other.chain_hash(t2), arena.chain_hash(top));
        for (r, v) in bindings(&spec) {
            prop_assert_eq!(other.value(t2, r), v);
        }
        prop_assert_eq!(other.extract(t2), flat);

        // Releasing the single outstanding reference frees the whole
        // chain in both arenas.
        arena.release(top);
        prop_assert_eq!(arena.live(), 0);
        other.release(t2);
        prop_assert_eq!(other.live(), 0);
    }

    #[test]
    fn chain_equality_agrees_with_wme_lists(a in chain(), b in chain()) {
        let mut arena = TokenArena::new();
        let ta = build(&mut arena, &a);
        let tb = build(&mut arena, &b);
        let same = wme_ids(&a) == wme_ids(&b);
        prop_assert_eq!(arena.chain_eq(ta, tb), same);
        // Equality is on the WME chain: the fingerprints must agree
        // whenever the chains do.
        if same {
            prop_assert_eq!(arena.chain_hash(ta), arena.chain_hash(tb));
        }
        arena.release(ta);
        arena.release(tb);
        prop_assert_eq!(arena.live(), 0);
    }
}
