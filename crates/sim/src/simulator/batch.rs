//! The rolling-horizon batch window (`--scheme batch`): one flush per
//! window, solved as a rectangular assignment. An `impl Simulator` child
//! module like `checkpoint.rs`.

use super::{Ev, Simulator};
use mtshare_model::{DispatchScheme, RequestId, RideRequest, TaxiId, Time};
use mtshare_obs::{Event, Stage};

impl Simulator {
    /// Drains the open batch window at its flush time `t`: scores one
    /// cost row per live member, solves the rectangular assignment with
    /// the Kuhn–Munkres solver (`mtshare-lap`) and commits each winner
    /// through the scheme's revalidated [`DispatchScheme::dispatch_to`]
    /// path. Losers re-enter the next window until their retry budget
    /// runs out. One heap step, like any other event — the whole flush
    /// is a pure function of the window contents and the frozen world.
    pub(super) fn process_batch_flush(&mut self, t: Time, scheme: &mut dyn DispatchScheme) {
        let window_s = self.cfg.batch.as_ref().expect("flush only queued in batch mode").window_s;
        let max_retries = self.cfg.batch.as_ref().expect("checked").max_retries;
        // A member can turn terminal while buffered (a chaos cancel
        // inside the open window): drop it here so it is matched — and
        // accounted — exactly zero more times.
        let members: Vec<(RequestId, u32)> = std::mem::take(&mut self.window)
            .into_iter()
            .filter(|&(id, _)| !self.resolved[id.index()])
            .collect();
        if members.is_empty() {
            return;
        }
        let reqs: Vec<RideRequest> =
            members.iter().map(|&(id, _)| self.requests.get(id).clone()).collect();
        // Pin every window endpoint before the solve (infrastructure,
        // untimed — the same contract as `try_dispatch`).
        reqs.iter().for_each(|r| self.hold_for_dispatch(r, t));
        let t0 = std::time::Instant::now();
        let rows = scheme.score_window(&reqs, t, &self.world());
        let Some(rows) = rows else {
            // Scheme has no batch-window path: dispatch the members
            // sequentially at the flush time (each takes its own hold).
            reqs.iter().for_each(|r| self.release(r));
            for r in &reqs {
                self.try_dispatch(r, t, None, true, scheme);
            }
            return;
        };
        debug_assert_eq!(rows.len(), reqs.len(), "one cost row per window member");

        // Columns: the sorted union of candidate taxis across rows. The
        // matrix entry is the marginal insertion detour, ∞ where a taxi
        // is not a (feasible) candidate of that row's request.
        let mut cols: Vec<TaxiId> =
            rows.iter().flat_map(|r| r.candidates.iter().copied()).collect();
        cols.sort_unstable();
        cols.dedup();
        let (n_rows, n_cols) = (rows.len(), cols.len());
        let mut cost = vec![f64::INFINITY; n_rows * n_cols];
        for (i, row) in rows.iter().enumerate() {
            for (c, taxi) in row.candidates.iter().enumerate() {
                let j = cols.binary_search(taxi).expect("columns built from candidates");
                cost[i * n_cols + j] = row.costs[c];
            }
        }
        let sol = {
            let _span = self.obs.stage(Stage::BatchSolve);
            mtshare_lap::solve(n_rows, n_cols, &cost)
        };
        self.obs.add(
            "lap",
            &[
                ("solves", 1),
                ("rows", n_rows as u64),
                ("cols", n_cols as u64),
                ("assigned", sol.assigned as u64),
                ("augmentations", sol.stats.augmentations),
                ("relaxations", sol.stats.relaxations),
                ("skipped_rows", sol.stats.skipped_rows),
            ],
        );
        let per_req_s = t0.elapsed().as_secs_f64() / n_rows as f64;

        for (i, (&(id, attempt), req)) in members.iter().zip(&reqs).enumerate() {
            self.response_ms.push(per_req_s * 1000.0);
            self.obs.record_response_s(per_req_s);
            self.candidates.push(rows[i].candidates.len() as f64);
            self.obs.emit(Event::Dispatch {
                t,
                req: id.0,
                candidates: rows[i].candidates.len() as u32,
                feasible: rows[i].feasible as u32,
            });
            // The LAP guarantees pairwise-distinct winners, so earlier
            // commits in this flush never touch a later winner's taxi —
            // each `dispatch_to` re-derives and re-verifies against the
            // current world anyway (materialization can still fail, which
            // demotes the row to a loser).
            let committed = sol.row_to_col[i].map(|j| cols[j]).is_some_and(|taxi| {
                let outcome = scheme.dispatch_to(req, taxi, t, &self.world());
                match outcome.assignment {
                    Some(a) => {
                        self.commit(req, a, t, scheme);
                        true
                    }
                    None => false,
                }
            });
            if !committed {
                self.release(req);
                if attempt >= max_retries {
                    self.rejected += 1;
                    self.resolved[id.index()] = true;
                    self.emit_reject(req, t);
                } else {
                    self.window.push((id, attempt + 1));
                }
            }
        }
        // Losers re-queued above re-arm the next flush (the window was
        // drained at entry, so they are its only members right now).
        if !self.window.is_empty() {
            self.push_ev(t + window_s, Ev::BatchFlush);
        }
    }
}
