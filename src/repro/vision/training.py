"""Training loop for the SSD detectors (paper Sec. IV-A).

The paper trains on OpenImages with RMSProp, lr 8e-4 decayed by 0.95
every 24 epochs, batch 24, photometric augmentations with p = 0.5; it
then fine-tunes (optionally with QAT) on the Himax dataset at lr 1e-4
decayed by 0.95 every 10 epochs. :class:`TrainingConfig` encodes those
hyperparameters, scaled to whatever dataset size the caller provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.datasets.base import DetectionDataset, LabeledImage
from repro.datasets.augment import photometric_augment
from repro.nn.optim import ExponentialDecay, RMSProp
from repro.vision.ssd import SSDDetector


@dataclass
class TrainingConfig:
    """Hyperparameters of one training phase.

    Attributes:
        epochs: passes over the dataset.
        batch_size: minibatch size (24 in the paper; smaller for the
            laptop-scale models).
        learning_rate: initial learning rate.
        decay_rate: exponential decay factor (0.95 in the paper).
        decay_epochs: epochs between decays (24 pre-train / 10 fine-tune).
        augment_prob: per-transform augmentation probability.
        seed: shuffling/augmentation seed.
    """

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 8e-4
    decay_rate: float = 0.95
    decay_epochs: int = 24
    augment_prob: float = 0.5
    seed: Optional[int] = 0


def paper_pretrain_config(epochs: int = 10, batch_size: int = 8) -> TrainingConfig:
    """The OpenImages training recipe (lr 8e-4, decay every 24 epochs)."""
    return TrainingConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=8e-4,
        decay_rate=0.95,
        decay_epochs=24,
    )


def paper_finetune_config(epochs: int = 5, batch_size: int = 8) -> TrainingConfig:
    """The Himax fine-tuning recipe (lr 1e-4, decay every 10 epochs)."""
    return TrainingConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=1e-4,
        decay_rate=0.95,
        decay_epochs=10,
    )


@dataclass
class TrainingLog:
    """Per-epoch mean losses."""

    epoch_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Trains an :class:`~repro.vision.ssd.SSDDetector` on a dataset.

    Args:
        detector: the model to train (modified in place).
        config: training hyperparameters.
        qat: optional weight fake-quantizer
            (:class:`repro.quantization.qat.QATWeightQuantizer`); when
            given, every step trains through quantized weights.
    """

    def __init__(
        self,
        detector: SSDDetector,
        config: Optional[TrainingConfig] = None,
        qat=None,
    ):
        self.detector = detector
        self.config = config or TrainingConfig()
        self.qat = qat
        self._rng = np.random.default_rng(self.config.seed)

    def fit(self, dataset: DetectionDataset) -> TrainingLog:
        """Run the configured number of epochs; returns the loss log.

        Raises:
            ValueError: ``dataset`` is empty or ``batch_size`` is below 1.
        """
        cfg = self.config
        if cfg.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {cfg.batch_size}")
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        steps_per_epoch = (len(dataset) + cfg.batch_size - 1) // cfg.batch_size
        schedule = ExponentialDecay(
            cfg.learning_rate,
            decay_rate=cfg.decay_rate,
            decay_steps=cfg.decay_epochs * steps_per_epoch,
        )
        optimizer = RMSProp(self.detector.parameters(), schedule)
        log = TrainingLog()
        self.detector.train(True)
        try:
            for _epoch in range(cfg.epochs):
                losses = []
                for images, boxes, labels in dataset.batches(cfg.batch_size, self._rng):
                    if cfg.augment_prob > 0.0:
                        augmented = [
                            photometric_augment(
                                LabeledImage(images[i], boxes[i], labels[i]),
                                self._rng,
                                p=cfg.augment_prob,
                            )
                            for i in range(images.shape[0])
                        ]
                        images = np.stack([a.image for a in augmented])
                        boxes = [a.boxes for a in augmented]
                        labels = [a.labels for a in augmented]
                    losses.append(self._step(optimizer, images, boxes, labels))
                log.epoch_losses.append(float(np.mean(losses)))
        finally:
            self.detector.train(False)
        return log

    def _step(self, optimizer, images, boxes, labels) -> float:
        if self.qat is None:
            return self.detector.train_step(optimizer, images, boxes, labels)
        with self.qat.quantized_weights(self.detector):
            self.detector.zero_grad()
            loss, grads = self.detector.compute_loss(images, boxes, labels)
            self.detector.backward(grads)
        optimizer.step()
        return loss
