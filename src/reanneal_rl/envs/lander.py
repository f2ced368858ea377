"""Simplified lunar-lander-style environment.

A point mass with orientation falls under gravity over a landing pad centered
at the origin. Four discrete actions: do nothing, fire the left thruster,
fire the main engine, fire the right thruster. The observation is the
8-vector (x, y, vx, vy, angle, angular velocity, left leg contact, right leg
contact) with the contact flags as 0/1 reals.

Rewards combine potential-based shaping (distance to pad, speed, tilt), fuel
costs per engine firing, and terminal bonuses: +100 for coming to rest off
the pad, a centering-dependent bonus in [100, 140] for resting on the pad,
-100 for crashing. Flying out of bounds ends the episode with no bonus.
This is not a rigid-body contact simulation; only the observation/action/
reward contract matters for the learning experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import EnvSpec, StepResult

GRAVITY = 9.8          # units / s^2
DT = 0.02              # s / step
MAIN_THRUST = 13.0     # acceleration along body-up while firing
SIDE_THRUST = 2.0      # lateral acceleration while a side thruster fires
SIDE_TORQUE = 0.4      # angular acceleration from a side thruster (rad/s^2)
FUEL_MAIN = 0.3
FUEL_SIDE = 0.03

PAD_HALF_WIDTH = 0.2
X_LIMIT = 1.0
Y_LIMIT = 1.5
MAX_EPISODE_STEPS = 1000

CRASH_SPEED = 0.5      # impact speed above which touchdown is a crash
CRASH_ANGLE = 0.4      # impact tilt above which touchdown is a crash
REST_SPEED = 0.01
REST_STEPS = 10        # consecutive slow grounded steps that count as "rest"
GROUND_FRICTION = 0.5  # per-step decay of vx and angle while grounded

# Shaping potential coefficients.
K_DIST = 100.0
K_SPEED = 100.0
K_ANGLE = 100.0

ACTION_NOOP = 0
ACTION_LEFT = 1
ACTION_MAIN = 2
ACTION_RIGHT = 3


@dataclass
class LanderState:
    x: float
    y: float
    vx: float
    vy: float
    angle: float
    angular_velocity: float
    leg_left_contact: bool = False
    leg_right_contact: bool = False


def observation_from_state(s):
    return np.array([
        s.x, s.y, s.vx, s.vy, s.angle, s.angular_velocity,
        1.0 if s.leg_left_contact else 0.0,
        1.0 if s.leg_right_contact else 0.0,
    ])


def _potential(s):
    dist = np.hypot(s.x, s.y)
    speed = np.hypot(s.vx, s.vy)
    return -(K_DIST * dist + K_SPEED * speed + K_ANGLE * abs(s.angle))


def pad_bonus(x):
    """Terminal bonus for coming to rest: 100 off the pad, up to 140 for a
    perfectly centered pad landing, linear in centering accuracy."""
    return 100.0 + 40.0 * max(0.0, 1.0 - abs(x) / PAD_HALF_WIDTH)


class LanderEnv:
    spec = EnvSpec(observation_size=8, action_count=4)

    def __init__(self):
        self.state = None
        self._terminal = True  # until reset or set_state starts an episode

    def reset(self, rng):
        """Spawn near top-center with small random velocity and tilt."""
        return self.set_state(LanderState(
            x=rng.uniform(-0.1, 0.1),
            y=rng.uniform(1.1, 1.3),
            vx=rng.uniform(-0.2, 0.2),
            vy=rng.uniform(-0.1, 0.0),
            angle=rng.uniform(-0.1, 0.1),
            angular_velocity=rng.uniform(-0.05, 0.05),
        ))

    def set_state(self, state):
        """Start an episode from `state`; returns its observation."""
        self.state = state
        self.step_index = 0
        self._rest_count = 0
        self._terminal = False
        return observation_from_state(self.state)

    def step(self, action):
        if self._terminal:
            raise RuntimeError("stepping a finished episode; call reset()")
        if action not in (ACTION_NOOP, ACTION_LEFT, ACTION_MAIN, ACTION_RIGHT):
            raise ValueError(f"invalid action {action}")
        s = self.state
        was_grounded = s.leg_left_contact and s.leg_right_contact
        phi_before = _potential(s)

        # Thrust accelerations in the world frame, from the current attitude.
        ax, ay = 0.0, -GRAVITY
        alpha = 0.0
        fuel = 0.0
        up = (-np.sin(s.angle), np.cos(s.angle))
        right = (np.cos(s.angle), np.sin(s.angle))
        if action == ACTION_MAIN:
            ax += MAIN_THRUST * up[0]
            ay += MAIN_THRUST * up[1]
            fuel = -FUEL_MAIN
        elif action == ACTION_LEFT:
            ax += SIDE_THRUST * right[0]
            ay += SIDE_THRUST * right[1]
            alpha = -SIDE_TORQUE
            fuel = -FUEL_SIDE
        elif action == ACTION_RIGHT:
            ax -= SIDE_THRUST * right[0]
            ay -= SIDE_THRUST * right[1]
            alpha = SIDE_TORQUE
            fuel = -FUEL_SIDE

        # Semi-implicit Euler: velocities first, then positions.
        s.vx += DT * ax
        s.vy += DT * ay
        s.angular_velocity += DT * alpha
        s.x += DT * s.vx
        s.y += DT * s.vy
        s.angle += DT * s.angular_velocity

        done = False
        reward_terminal = 0.0

        if s.y <= 0.0:
            impact_speed = np.hypot(s.vx, s.vy)
            if not was_grounded and (
                impact_speed > CRASH_SPEED or abs(s.angle) > CRASH_ANGLE
            ):
                done = True
                reward_terminal = -100.0
                s.y = 0.0
            else:
                # Gentle contact: settle on the ground.
                s.y = 0.0
                s.vy = 0.0
                s.vx *= GROUND_FRICTION
                s.angle *= GROUND_FRICTION
                s.angular_velocity = 0.0
                s.leg_left_contact = True
                s.leg_right_contact = True
                if abs(s.vx) < REST_SPEED:
                    self._rest_count += 1
                else:
                    self._rest_count = 0
                if self._rest_count >= REST_STEPS:
                    done = True
                    reward_terminal = pad_bonus(s.x)
        else:
            s.leg_left_contact = False
            s.leg_right_contact = False
            self._rest_count = 0
            if abs(s.x) > X_LIMIT or s.y > Y_LIMIT:
                done = True  # out of bounds, no bonus

        reward = (_potential(s) - phi_before) + fuel + reward_terminal

        self.step_index += 1
        timed_out = not done and self.step_index >= MAX_EPISODE_STEPS
        self._terminal = done or timed_out
        return StepResult(observation_from_state(s), float(reward), done, timed_out)
