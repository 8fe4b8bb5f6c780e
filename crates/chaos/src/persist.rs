//! [`Persist`] impls for the chaos layer. The disruption plan is part of
//! the checkpointed dispatcher state: it is the run's *only* source of
//! pseudo-randomness (generated up front from the chaos seed, never
//! during the run), so snapshotting the materialized plan — rather than
//! an RNG cursor — captures the whole random stream exactly.

use crate::plan::{ChaosConfig, Disruption, DisruptionPlan, TimedDisruption};
use mtshare_model::{RequestId, TaxiId};
use mtshare_persist::{DecodeError, Decoder, Encoder, Persist};
use mtshare_road::TrafficShiftSpec;

impl Persist for Disruption {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Disruption::Breakdown { taxi } => {
                enc.u8(0);
                taxi.encode(enc);
            }
            Disruption::Cancel { request } => {
                enc.u8(1);
                request.encode(enc);
            }
            Disruption::TrafficShift(spec) => {
                enc.u8(2);
                spec.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u8()? {
            0 => Ok(Disruption::Breakdown { taxi: TaxiId::decode(dec)? }),
            1 => Ok(Disruption::Cancel { request: RequestId::decode(dec)? }),
            2 => Ok(Disruption::TrafficShift(TrafficShiftSpec::decode(dec)?)),
            _ => Err(DecodeError::Invalid("unknown Disruption tag")),
        }
    }
}

impl Persist for TimedDisruption {
    fn encode(&self, enc: &mut Encoder) {
        enc.f64(self.at);
        self.disruption.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TimedDisruption { at: dec.f64()?, disruption: Disruption::decode(dec)? })
    }
}

impl Persist for DisruptionPlan {
    fn encode(&self, enc: &mut Encoder) {
        enc.seq(&self.events);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DisruptionPlan { events: dec.seq()? })
    }
}

impl Persist for ChaosConfig {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.seed);
        enc.u32(self.breakdowns);
        enc.u32(self.cancellations);
        enc.u32(self.traffic_shifts);
        enc.f64(self.shift_radius_m);
        enc.f64(self.shift_factor);
        enc.f64(self.shift_duration_s);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ChaosConfig {
            seed: dec.u64()?,
            breakdowns: dec.u32()?,
            cancellations: dec.u32()?,
            traffic_shifts: dec.u32()?,
            shift_radius_m: dec.f64()?,
            shift_factor: dec.f64()?,
            shift_duration_s: dec.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::NodeId;

    #[test]
    fn generated_plan_round_trips_exactly() {
        let cfg = ChaosConfig::with_seed(7);
        let graph = mtshare_road::grid_city(&mtshare_road::GridCityConfig::tiny()).unwrap();
        let plan = DisruptionPlan::generate(&cfg, &graph, 3600.0, 20, 100);
        let back = DisruptionPlan::from_bytes(&plan.to_bytes()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn every_disruption_kind_round_trips() {
        let plan = DisruptionPlan {
            events: vec![
                TimedDisruption { at: 10.0, disruption: Disruption::Breakdown { taxi: TaxiId(3) } },
                TimedDisruption {
                    at: 20.5,
                    disruption: Disruption::Cancel { request: RequestId(9) },
                },
                TimedDisruption {
                    at: 30.25,
                    disruption: Disruption::TrafficShift(TrafficShiftSpec {
                        center: NodeId(5),
                        radius_m: 500.0,
                        factor: 0.4,
                        start_s: 30.25,
                        duration_s: 120.0,
                    }),
                },
            ],
        };
        assert_eq!(DisruptionPlan::from_bytes(&plan.to_bytes()).unwrap(), plan);
    }

    #[test]
    fn configs_round_trip() {
        let cfg = ChaosConfig::with_seed(42);
        assert_eq!(ChaosConfig::from_bytes(&cfg.to_bytes()).unwrap(), cfg);
        assert!(Disruption::from_bytes(&[9]).is_err());
    }
}
