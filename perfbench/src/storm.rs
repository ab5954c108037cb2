//! Seeded mixed storm scripts for stream sessions: machine failures and
//! recoveries, ETC drift and task churn, generated against a client-side
//! mirror world so every scripted event is valid.

use grid_sim::{DynamicGrid, EtcDelta, GridEvent};
use pa_cga_core::rng::splitmix64;

/// The deterministic storm generator.
pub struct Script {
    state: u64,
    step: usize,
}

impl Script {
    pub fn new(seed: u64) -> Script {
        Script { state: splitmix64(seed ^ 0x5707), step: 0 }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Exact binary fractions survive the JSON round trip bit for bit,
    /// so the mirror's world matches the daemon's.
    fn drift(&mut self, world: &DynamicGrid) -> GridEvent {
        if self.next_u64().is_multiple_of(4) {
            let deltas = (0..2)
                .map(|_| EtcDelta {
                    task: self.below(world.base().n_tasks()),
                    machine: self.below(world.base().n_machines()),
                    factor: (4 + self.next_u64() % 9) as f64 / 8.0,
                })
                .collect();
            GridEvent::EtcDeltas { deltas }
        } else {
            let epsilon = (1 + self.next_u64() % 8) as f64 / 16.0;
            GridEvent::EtcDrift { epsilon, seed: self.next_u64() & 0xFFFF_FFFF }
        }
    }

    /// The next event: failures/recoveries on even steps, drift and
    /// churn in between.
    pub fn next(&mut self, world: &DynamicGrid) -> GridEvent {
        let step = self.step;
        self.step += 1;
        match step % 4 {
            0 | 2 => {
                let alive = world.alive();
                let down = world.down_machines();
                if alive.len() > 1 && (down.is_empty() || !self.next_u64().is_multiple_of(3)) {
                    GridEvent::MachineDown { machine: alive[self.below(alive.len())] }
                } else if !down.is_empty() {
                    GridEvent::MachineUp { machine: down[self.below(down.len())] }
                } else {
                    self.drift(world)
                }
            }
            1 => self.drift(world),
            _ => {
                let n_tasks = world.base().n_tasks();
                if n_tasks > 2 && self.next_u64().is_multiple_of(2) {
                    GridEvent::TaskCancel { task: self.below(n_tasks) }
                } else {
                    let etc = (0..world.base().n_machines())
                        .map(|_| (1 + self.next_u64() % 100) as f64)
                        .collect();
                    GridEvent::TaskArrive { etc }
                }
            }
        }
    }
}

/// The `stream.event` wire line for `event`.
pub fn event_line(seq: u64, event: &GridEvent) -> String {
    let body = match event {
        GridEvent::MachineDown { machine } => {
            format!("{{\"kind\":\"machine.down\",\"machine\":{machine}}}")
        }
        GridEvent::MachineUp { machine } => {
            format!("{{\"kind\":\"machine.up\",\"machine\":{machine}}}")
        }
        GridEvent::EtcDrift { epsilon, seed } => {
            format!("{{\"kind\":\"etc.drift\",\"epsilon\":{epsilon},\"seed\":{seed}}}")
        }
        GridEvent::EtcDeltas { deltas } => {
            let triples: Vec<String> =
                deltas.iter().map(|d| format!("[{},{},{}]", d.task, d.machine, d.factor)).collect();
            format!("{{\"kind\":\"etc.drift\",\"deltas\":[{}]}}", triples.join(","))
        }
        GridEvent::TaskArrive { etc } => {
            let row: Vec<String> = etc.iter().map(|v| v.to_string()).collect();
            format!("{{\"kind\":\"task.arrive\",\"etc\":[{}]}}", row.join(","))
        }
        GridEvent::TaskCancel { task } => format!("{{\"kind\":\"task.cancel\",\"task\":{task}}}"),
    };
    format!("{{\"type\":\"stream.event\",\"seq\":{seq},\"event\":{body}}}")
}
