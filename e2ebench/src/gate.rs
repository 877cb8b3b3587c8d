//! The correctness gate every run passes through: per-tenant byte
//! identity against direct aggregation, exact admission accounting,
//! and query answers recomputed from returned snapshots.

use profileme_core::{ProfileDatabase, ProfileError, ProfileField, Sample, WireFormat};
use profileme_serve::{FleetStats, TenantId, Tenanted};
use std::collections::BTreeMap;

/// What each tenant's view must equal: direct `ProfileDatabase::add`
/// of every sample the service acknowledged for that tenant.
#[derive(Debug, Clone)]
pub struct Reference {
    proto: ProfileDatabase,
    views: BTreeMap<u32, ProfileDatabase>,
}

impl Reference {
    pub fn new(proto: ProfileDatabase) -> Reference {
        Reference {
            proto,
            views: BTreeMap::new(),
        }
    }

    /// Records `samples` as acknowledged for `tenant`, `times` over.
    pub fn add(&mut self, tenant: TenantId, samples: &[Sample], times: u64) {
        if times == 0 {
            return;
        }
        let view = self
            .views
            .entry(tenant.0)
            .or_insert_with(|| self.proto.clone());
        for _ in 0..times {
            for s in samples {
                view.add(s);
            }
        }
    }
}

/// Every way `merged` differs from `reference`, compared as
/// `encode(WireFormat::Sparse)` bytes per tenant.
pub fn check_views(
    reference: &Reference,
    merged: &Tenanted<ProfileDatabase>,
) -> Result<Vec<String>, ProfileError> {
    let mut mismatches = Vec::new();
    for (&tenant, want) in &reference.views {
        match merged.tenant(TenantId(tenant)) {
            None => mismatches.push(format!("tenant {tenant}: view missing")),
            Some(got) => {
                if got.encode(WireFormat::Sparse)? != want.encode(WireFormat::Sparse)? {
                    mismatches.push(format!(
                        "tenant {tenant}: view differs from direct aggregation \
                         ({} samples served, {} acknowledged)",
                        got.total_samples, want.total_samples
                    ));
                }
            }
        }
    }
    for (tenant, _) in merged.tenants() {
        if !reference.views.contains_key(&tenant.0) {
            mismatches.push(format!("{tenant}: view for a tenant that sent nothing"));
        }
    }
    Ok(mismatches)
}

/// Every way the admission accounting is not exact: per tenant and in
/// total `offered == accepted + thinned + shed`, and nothing lost.
pub fn check_accounting(stats: &FleetStats) -> Vec<String> {
    let mut mismatches = Vec::new();
    for t in &stats.tenants {
        if t.offered != t.accepted + t.thinned + t.shed {
            mismatches.push(format!(
                "tenant {}: offered {} != accepted {} + thinned {} + shed {}",
                t.tenant, t.offered, t.accepted, t.thinned, t.shed
            ));
        }
    }
    if stats.offered != stats.accepted + stats.thinned + stats.shed {
        mismatches.push(format!(
            "fleet: offered {} != accepted {} + thinned {} + shed {}",
            stats.offered, stats.accepted, stats.thinned, stats.shed
        ));
    }
    if stats.service.lost() != 0 {
        mismatches.push(format!("{} samples lost", stats.service.lost()));
    }
    if stats.service.enqueued != stats.accepted {
        mismatches.push(format!(
            "{} samples enqueued on shard rings, {} accepted",
            stats.service.enqueued, stats.accepted
        ));
    }
    mismatches
}

/// The answer a dashboard query must give: `tenant`'s profile between
/// two returned snapshots, and its ten hottest PCs by samples —
/// recomputed with `delta_since` and `top_n` exactly as
/// `FleetService::tenant_window` documents it.
pub fn expected_window(
    earlier: &Tenanted<ProfileDatabase>,
    later: &Tenanted<ProfileDatabase>,
    tenant: TenantId,
) -> Result<Option<ProfileDatabase>, ProfileError> {
    let Some(later) = later.tenant(tenant) else {
        return Ok(None);
    };
    match earlier.tenant(tenant) {
        None => Ok(Some(later.clone())),
        Some(earlier) => later.delta_since(earlier).map(Some),
    }
}

/// Whether a served window and its top ten equal the recomputation.
pub fn answer_matches(
    served: Option<&ProfileDatabase>,
    expected: Option<&ProfileDatabase>,
) -> Result<bool, ProfileError> {
    Ok(match (served, expected) {
        (None, None) => true,
        (Some(s), Some(e)) => {
            s.encode(WireFormat::Sparse)? == e.encode(WireFormat::Sparse)?
                && s.top_n(10, ProfileField::Samples) == e.top_n(10, ProfileField::Samples)
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use profileme_serve::ShardAggregate;

    fn fixture() -> (ProfileDatabase, Vec<Sample>) {
        let w = profileme_workloads::gcc(4);
        let (base, _) = inputs::base_samples(&w, 3).unwrap();
        (ProfileDatabase::new(&w.program, inputs::INTERVAL), base)
    }

    fn served(proto: &ProfileDatabase, samples: &[Sample]) -> Tenanted<ProfileDatabase> {
        let mut view = Tenanted::new(proto.clone());
        for s in samples {
            view.absorb(&(TenantId(2), s.clone()));
        }
        view
    }

    #[test]
    fn identical_aggregation_passes() {
        let (proto, samples) = fixture();
        let mut reference = Reference::new(proto.clone());
        reference.add(TenantId(2), &samples, 1);
        assert!(check_views(&reference, &served(&proto, &samples))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn one_perturbed_counter_is_rejected() {
        let (proto, samples) = fixture();
        let mut reference = Reference::new(proto.clone());
        reference.add(TenantId(2), &samples, 1);
        // Nudge one sample's fetch-to-map latency: of all the counters,
        // only that PC's fetch-to-map latency sum moves, and by one.
        let mut perturbed = samples.clone();
        let latencies = perturbed
            .iter_mut()
            .find_map(|s| s.record.as_mut().and_then(|r| r.latencies.as_mut()))
            .expect("retired samples carry stage latencies");
        latencies.fetch_to_map += 1;
        let mismatches = check_views(&reference, &served(&proto, &perturbed)).unwrap();
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        // A missing or extra tenant is caught too.
        let mut extra = served(&proto, &samples);
        extra.absorb(&(TenantId(5), samples[0].clone()));
        assert_eq!(check_views(&reference, &extra).unwrap().len(), 1);
    }

    #[test]
    fn windows_recompute_from_snapshots() {
        let (proto, samples) = fixture();
        let half = samples.len() / 2;
        let earlier = served(&proto, &samples[..half]);
        let later = served(&proto, &samples);
        let window = expected_window(&earlier, &later, TenantId(2))
            .unwrap()
            .unwrap();
        assert_eq!(window.total_samples, (samples.len() - half) as u64);
        assert!(answer_matches(Some(&window), Some(&window)).unwrap());
        let whole = expected_window(&Tenanted::new(proto), &later, TenantId(2)).unwrap();
        assert!(!answer_matches(Some(&window), whole.as_ref()).unwrap());
        assert!(expected_window(&earlier, &later, TenantId(9))
            .unwrap()
            .is_none());
    }
}
