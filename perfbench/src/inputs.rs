//! Seeded input generation: every workload's scenario-spec JSON text is a
//! pure function of the `--seed` argument (plus, for `table1`, the
//! checked-in `scenarios/table1/` corpus it rewrites).

use wakeup_scenario::gen::SpecGen;
use wakeup_scenario::{
    corpus, DelaySpec, EngineSpec, GraphSpec, ProtocolSpec, ScenarioSpec, WakeSpec,
};

/// Node count of the `flood` workload: below the 2¹⁸ relabel threshold,
/// and small enough that the network and engine state stay cache-resident.
pub const FLOOD_N: usize = 1 << 14;

/// Specs in the traced run's conformance leg.
pub const CONFORMANCE_SPECS: usize = 200;

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed inside the spec schema's range (`0..=u32::MAX`).
fn spec_seed(seed: u64, tag: u64) -> u64 {
    mix(seed, tag) & u64::from(u32::MAX)
}

/// FNV-1a over the concatenated spec texts: printed with every result, so
/// a change to `SpecGen` or the corpus shows up as changed input rather
/// than as a change in speed.
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for text in texts {
        for &b in text.as_bytes().iter().chain(&[0u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// The `flood` spec: async flooding from one seeded node on the `sparse`
/// family at n = [`FLOOD_N`], unit delays, serial.
pub fn flood_spec(seed: u64, shards: usize) -> String {
    let graph_seed = spec_seed(seed, 1);
    ScenarioSpec {
        name: "perfbench-flood".into(),
        graph: GraphSpec::Sparse {
            n: FLOOD_N,
            seed: graph_seed,
        },
        protocol: ProtocolSpec::Flooding,
        wake: WakeSpec::Single {
            node: (mix(seed, 2) % FLOOD_N as u64) as usize,
        },
        delays: DelaySpec::Unit,
        engine: EngineSpec {
            seed: graph_seed,
            shards,
            audit: false,
        },
        report: None,
    }
    .to_canonical_json()
}

/// The `table1` cells: every `scenarios/table1/` row at each of its
/// `report.sizes`, with graph and engine seeds drawn from the workload
/// seed (one seed per cell for both, the corpus convention for `sparse`).
pub fn table1_specs(seed: u64) -> Result<Vec<String>, String> {
    let rows = corpus::table1().map_err(|e| format!("load scenarios/table1: {e}"))?;
    let mut cells = Vec::new();
    for (row, (path, spec)) in rows.into_iter().enumerate() {
        let sizes = spec
            .report
            .as_ref()
            .map(|r| r.sizes.clone())
            .unwrap_or_default();
        for n in sizes {
            let cell_seed = spec_seed(seed, 1000 * (row as u64 + 1) + n as u64);
            let mut cell = spec.clone();
            cell.graph = match cell.graph {
                GraphSpec::Sparse { .. } => GraphSpec::Sparse { n, seed: cell_seed },
                GraphSpec::Complete { .. } => GraphSpec::Complete { n },
                ref other => {
                    return Err(format!(
                        "{}: table1 rows must use the sparse or complete family, not {other:?}",
                        path.display()
                    ))
                }
            };
            cell.engine.seed = cell_seed;
            cells.push(cell.to_canonical_json());
        }
    }
    if cells.is_empty() {
        return Err("scenarios/table1 holds no cells".into());
    }
    Ok(cells)
}

/// The conformance leg's specs: the first [`CONFORMANCE_SPECS`] of
/// `SpecGen` at the workload seed, in canonical form.
pub fn conformance_specs(seed: u64) -> Vec<String> {
    SpecGen::new(seed)
        .take(CONFORMANCE_SPECS as u64)
        .iter()
        .map(ScenarioSpec::to_canonical_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_spec_bytes() {
        assert_eq!(flood_spec(7, 1), flood_spec(7, 1));
        assert_ne!(flood_spec(7, 1), flood_spec(8, 1));
        assert_eq!(conformance_specs(7), conformance_specs(7));
        assert_ne!(conformance_specs(7), conformance_specs(8));
    }

    #[test]
    fn table1_cells_are_seeded_and_parse() {
        let a = table1_specs(7).unwrap();
        assert_eq!(a, table1_specs(7).unwrap());
        assert_ne!(a, table1_specs(8).unwrap());
        for text in &a {
            let spec = ScenarioSpec::parse(text).unwrap();
            assert_eq!(spec.to_canonical_json(), *text);
        }
    }

    #[test]
    fn generated_text_is_canonical() {
        let text = flood_spec(11, 2);
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec.to_canonical_json(), text);
        assert_eq!(spec.engine.shards, 2);
        assert_eq!(spec.graph.node_count(), FLOOD_N);
    }

    #[test]
    fn digest_separates_texts() {
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_eq!(digest(["x"]), digest(["x"]));
    }
}
