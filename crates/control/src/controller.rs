//! Discrete-time feedback controllers.

/// A discrete-time controller: consumes the tracking error
/// `e(k) = r - y(k)` and produces the next broadcast signal `π(k+1)`.
pub trait Controller {
    /// Processes one error sample and returns the control signal.
    fn update(&mut self, error: f64) -> f64;
}

/// Pure proportional control: `u = bias + kp · e`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PController {
    /// Proportional gain.
    pub kp: f64,
    /// Constant offset added to the output.
    pub bias: f64,
}

impl PController {
    /// Creates a proportional controller.
    pub fn new(kp: f64, bias: f64) -> Self {
        PController { kp, bias }
    }
}

impl Controller for PController {
    fn update(&mut self, error: f64) -> f64 {
        self.bias + self.kp * error
    }
}

/// Pure integral control: `u(k+1) = u(k) + ki · e(k)`.
///
/// This is the controller the paper warns about: integral action in the
/// loop can destroy the ergodic properties the equal-impact notion needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IController {
    /// Integral gain.
    pub ki: f64,
    state: f64,
}

impl IController {
    /// Creates an integral controller starting from `initial` output.
    pub fn new(ki: f64, initial: f64) -> Self {
        IController { ki, state: initial }
    }
}

impl Controller for IController {
    fn update(&mut self, error: f64) -> f64 {
        self.state += self.ki * error;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_controller_is_memoryless() {
        let mut c = PController::new(2.0, 1.0);
        assert_eq!(c.update(0.5), 2.0);
        assert_eq!(c.update(0.5), 2.0);
        assert_eq!(c.update(-1.0), -1.0);
    }

    #[test]
    fn i_controller_accumulates() {
        let mut c = IController::new(0.5, 1.0);
        assert_eq!(c.update(1.0), 1.5);
        assert_eq!(c.update(1.0), 2.0);
        assert_eq!(c.update(0.0), 2.0);
    }
}
